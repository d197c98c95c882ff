package minisql

import (
	"fmt"
	"strconv"
	"strings"
)

// statement is a parsed SQL statement.
type statement interface{ stmt() }

// columnDef defines one column of a table.
type columnDef struct {
	name string
	kind Kind
	pk   bool
}

// createTableStmt is CREATE TABLE [IF NOT EXISTS] name (col INT|FLOAT|TEXT [PRIMARY KEY], ...).
type createTableStmt struct {
	name        string
	ifNotExists bool
	columns     []columnDef
}

// expr is a literal value or a ?-placeholder inside a statement.
type expr struct {
	placeholder bool
	value       Value
}

// insertStmt is INSERT|REPLACE INTO t VALUES (...), (...): whole rows, in
// the table's column order.
type insertStmt struct {
	table   string
	replace bool // REPLACE INTO upserts on primary-key conflict
	rows    [][]expr
}

// cond is WHERE col = expr, the only condition there is. The engine accepts
// it only on the table's primary key, so it names at most one row.
type cond struct {
	column string
	key    expr
}

// selectStmt is SELECT cols|*|COUNT(*) FROM t [WHERE k = e] [ORDER BY col
// [ASC|DESC]] [LIMIT n].
type selectStmt struct {
	table   string
	columns []string // empty means *
	count   bool     // SELECT COUNT(*)
	where   *cond
	orderBy string // empty means no ORDER BY
	desc    bool
	limit   int // -1 means no limit
}

// setClause is one col = expr of an UPDATE.
type setClause struct {
	column string
	value  expr
}

// updateStmt is UPDATE t SET col = e, ... WHERE k = e.
type updateStmt struct {
	table string
	sets  []setClause
	where cond
}

// deleteStmt is DELETE FROM t WHERE k = e.
type deleteStmt struct {
	table string
	where cond
}

func (createTableStmt) stmt() {}
func (insertStmt) stmt()      {}
func (selectStmt) stmt()      {}
func (updateStmt) stmt()      {}
func (deleteStmt) stmt()      {}

type parser struct {
	toks []token
	pos  int
	sql  string
}

// parse parses a single SQL statement (an optional trailing ';' is allowed).
func parse(sql string) (statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, sql: sql}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.acceptSymbol(";")
	if !p.atEOF() {
		return nil, p.errorf("trailing tokens after statement")
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().kind == tokEOF }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("minisql: parse error at %d in %q: %s", p.cur().pos, p.sql, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKeyword(kw string) bool {
	if t := p.cur(); t.kind == tokKeyword && t.text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptSymbol(s string) bool {
	if t := p.cur(); t.kind == tokSymbol && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errorf("expected %q", s)
	}
	return nil
}

// list parses one or more items separated by commas.
func (p *parser) list(item func() error) error {
	for {
		if err := item(); err != nil {
			return err
		}
		if !p.acceptSymbol(",") {
			return nil
		}
	}
}

// ident also accepts keywords used as identifiers (e.g. a column named
// "key", which the paper's qos_rules schema uses).
func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind == tokIdent {
		p.pos++
		return t.text, nil
	}
	if t.kind == tokKeyword {
		p.pos++
		return strings.ToLower(t.text), nil
	}
	return "", p.errorf("expected identifier, found %q", t.text)
}

func (p *parser) statement() (statement, error) {
	switch {
	case p.acceptKeyword("CREATE"):
		return p.createTable()
	case p.acceptKeyword("INSERT"):
		return p.insert(false)
	case p.acceptKeyword("REPLACE"):
		return p.insert(true)
	case p.acceptKeyword("SELECT"):
		return p.selectStmt()
	case p.acceptKeyword("UPDATE"):
		return p.update()
	case p.acceptKeyword("DELETE"):
		return p.deleteStmt()
	default:
		return nil, p.errorf("expected statement keyword, found %q", p.cur().text)
	}
}

func (p *parser) createTable() (statement, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := createTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.ifNotExists = true
	}
	var err error
	if st.name, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	err = p.list(func() error {
		col, err := p.ident()
		if err != nil {
			return err
		}
		def := columnDef{name: col}
		switch t := p.cur(); {
		case p.acceptKeyword("INT"):
			def.kind = KindInt
		case p.acceptKeyword("FLOAT"):
			def.kind = KindFloat
		case p.acceptKeyword("TEXT"):
			def.kind = KindText
		default:
			return p.errorf("expected column type INT, FLOAT or TEXT, found %q", t.text)
		}
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return err
			}
			def.pk = true
		}
		st.columns = append(st.columns, def)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, p.expectSymbol(")")
}

// term parses a literal or a ?-placeholder.
func (p *parser) term() (expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokSymbol && t.text == "?":
		p.pos++
		return expr{placeholder: true}, nil
	case t.kind == tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return expr{}, p.errorf("bad number %q", t.text)
			}
			return expr{value: Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return expr{}, p.errorf("bad integer %q", t.text)
		}
		return expr{value: Int(n)}, nil
	case t.kind == tokString:
		p.pos++
		return expr{value: Text(t.text)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.pos++
		return expr{value: null()}, nil
	default:
		return expr{}, p.errorf("expected value, found %q", t.text)
	}
}

func (p *parser) insert(replace bool) (statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := insertStmt{table: name, replace: replace}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	err = p.list(func() error {
		if err := p.expectSymbol("("); err != nil {
			return err
		}
		var row []expr
		err := p.list(func() error {
			e, err := p.term()
			row = append(row, e)
			return err
		})
		if err != nil {
			return err
		}
		st.rows = append(st.rows, row)
		return p.expectSymbol(")")
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// cond parses col = expr, after WHERE.
func (p *parser) cond() (cond, error) {
	col, err := p.ident()
	if err != nil {
		return cond{}, err
	}
	if err := p.expectSymbol("="); err != nil {
		return cond{}, err
	}
	key, err := p.term()
	return cond{column: col, key: key}, err
}

func (p *parser) selectStmt() (statement, error) {
	if p.acceptKeyword("CHANGES") {
		return p.changes()
	}
	st := selectStmt{limit: -1}
	switch {
	case p.acceptSymbol("*"):
	case p.acceptKeyword("COUNT"):
		for _, s := range []string{"(", "*", ")"} {
			if err := p.expectSymbol(s); err != nil {
				return nil, err
			}
		}
		st.count = true
	default:
		err := p.list(func() error {
			col, err := p.ident()
			st.columns = append(st.columns, col)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	var err error
	if st.table, err = p.ident(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("WHERE") {
		c, err := p.cond()
		if err != nil {
			return nil, err
		}
		st.where = &c
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if st.orderBy, err = p.ident(); err != nil {
			return nil, err
		}
		st.desc = p.acceptKeyword("DESC")
		if !st.desc {
			p.acceptKeyword("ASC")
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.cur()
		if t.kind != tokNumber {
			return nil, p.errorf("expected LIMIT count")
		}
		p.pos++
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errorf("bad LIMIT %q", t.text)
		}
		st.limit = n
	}
	return st, nil
}

// changes parses the rest of SELECT CHANGES FROM t SINCE origin, seq.
func (p *parser) changes() (statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SINCE"); err != nil {
		return nil, err
	}
	st := changesStmt{table: name}
	if st.since[0], err = p.term(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol(","); err != nil {
		return nil, err
	}
	if st.since[1], err = p.term(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) update() (statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := updateStmt{table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	err = p.list(func() error {
		col, err := p.ident()
		if err != nil {
			return err
		}
		if err := p.expectSymbol("="); err != nil {
			return err
		}
		e, err := p.term()
		st.sets = append(st.sets, setClause{col, e})
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	if st.where, err = p.cond(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) deleteStmt() (statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	st := deleteStmt{table: name}
	if st.where, err = p.cond(); err != nil {
		return nil, err
	}
	return st, nil
}
