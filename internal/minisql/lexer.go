package minisql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , * = ? ;
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; idents keep original case
	pos  int
}

var keywords = map[string]bool{
	"CREATE": true, "TABLE": true, "IF": true, "NOT": true, "EXISTS": true,
	"PRIMARY": true, "KEY": true, "INT": true, "FLOAT": true, "TEXT": true,
	"INSERT": true, "REPLACE": true, "INTO": true, "VALUES": true,
	"SELECT": true, "FROM": true, "WHERE": true,
	"ORDER": true, "BY": true, "ASC": true, "DESC": true, "LIMIT": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"COUNT": true, "NULL": true, "CHANGES": true, "SINCE": true,
}

// lex tokenizes a SQL string. It returns an error with position context on
// any byte it cannot interpret.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					// Doubled quote is an escaped quote.
					if i+1 < n && input[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("minisql: unterminated string literal at %d", start)
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c >= '0' && c <= '9' || c == '-' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9':
			start := i
			i++
			for i < n && (input[i] >= '0' && input[i] <= '9' || input[i] == '.' || input[i] == 'e' || input[i] == 'E' ||
				(input[i] == '-' || input[i] == '+') && (input[i-1] == 'e' || input[i-1] == 'E')) {
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '=' || c == '?' || c == ';':
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("minisql: unexpected character %q at %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
