package minisql

import (
	"fmt"
	"strconv"
	"strings"
)

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// ColumnDef defines one column of a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Kind       Kind
	PrimaryKey bool
}

// CreateTableStmt is CREATE TABLE [IF NOT EXISTS] name (col type [PRIMARY KEY], ...).
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
}

// Expr is a literal value or a ?-placeholder inside a statement.
type Expr struct {
	Placeholder bool
	Value       Value
}

// InsertStmt is INSERT|REPLACE INTO t [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Replace bool // REPLACE INTO upserts on primary-key conflict
	Columns []string
	Rows    [][]Expr
}

// CondOp enumerates comparison operators in WHERE clauses.
type CondOp string

// Supported comparison operators.
const (
	OpEq CondOp = "="
	OpNe CondOp = "!="
	OpLt CondOp = "<"
	OpLe CondOp = "<="
	OpGt CondOp = ">"
	OpGe CondOp = ">="
)

// Cond is one `col OP expr` term; WHERE clauses are conjunctions of Conds.
type Cond struct {
	Column string
	Op     CondOp
	Expr   Expr
}

// OrderBy describes an ORDER BY term.
type OrderBy struct {
	Column string
	Desc   bool
}

// SelectStmt is SELECT cols|*|COUNT(*) FROM t [WHERE ...] [ORDER BY ...] [LIMIT n].
type SelectStmt struct {
	Table   string
	Columns []string // empty means *
	Count   bool     // SELECT COUNT(*)
	Where   []Cond
	Order   *OrderBy
	Limit   int // -1 means no limit
}

// UpdateStmt is UPDATE t SET col=expr, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Sets  []struct {
		Column string
		Expr   Expr
	}
	Where []Cond
}

// DeleteStmt is DELETE FROM t [WHERE ...].
type DeleteStmt struct {
	Table string
	Where []Cond
}

func (CreateTableStmt) stmt() {}
func (InsertStmt) stmt()      {}
func (SelectStmt) stmt()      {}
func (UpdateStmt) stmt()      {}
func (DeleteStmt) stmt()      {}

type parser struct {
	toks []token
	pos  int
	sql  string
}

// Parse parses a single SQL statement (an optional trailing ';' is allowed).
func Parse(sql string) (Statement, error) {
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

func (p *parser) statement() (Statement, error) {
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

func (p *parser) createTable() (Statement, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	st := CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		kind, err := p.columnType()
		if err != nil {
			return nil, err
		}
		def := ColumnDef{Name: col, Kind: kind}
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			def.PrimaryKey = true
		}
		st.Columns = append(st.Columns, def)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) columnType() (Kind, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return KindNull, p.errorf("expected column type, found %q", t.text)
	}
	p.pos++
	switch t.text {
	case "INT", "INTEGER", "BIGINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL":
		return KindFloat, nil
	case "TEXT":
		return KindText, nil
	case "VARCHAR":
		// VARCHAR(n): size is parsed and ignored.
		if p.acceptSymbol("(") {
			if p.cur().kind != tokNumber {
				return KindNull, p.errorf("expected VARCHAR size")
			}
			p.pos++
			if err := p.expectSymbol(")"); err != nil {
				return KindNull, err
			}
		}
		return KindText, nil
	default:
		return KindNull, p.errorf("unknown column type %q", t.text)
	}
}

func (p *parser) expr() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokSymbol && t.text == "?":
		p.pos++
		return Expr{Placeholder: true}, nil
	case t.kind == tokNumber:
		p.pos++
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Expr{}, p.errorf("bad number %q", t.text)
			}
			return Expr{Value: Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Expr{}, p.errorf("bad integer %q", t.text)
		}
		return Expr{Value: Int(n)}, nil
	case t.kind == tokString:
		p.pos++
		return Expr{Value: Text(t.text)}, nil
	case t.kind == tokKeyword && t.text == "NULL":
		p.pos++
		return Expr{Value: Null()}, nil
	default:
		return Expr{}, p.errorf("expected value, found %q", t.text)
	}
}

func (p *parser) insert(replace bool) (Statement, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := InsertStmt{Table: name, Replace: replace}
	if p.acceptSymbol("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) whereClause() ([]Cond, error) {
	if !p.acceptKeyword("WHERE") {
		return nil, nil
	}
	var conds []Cond
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != tokSymbol {
			return nil, p.errorf("expected comparison operator")
		}
		var op CondOp
		switch t.text {
		case "=":
			op = OpEq
		case "!=", "<>":
			op = OpNe
		case "<":
			op = OpLt
		case "<=":
			op = OpLe
		case ">":
			op = OpGt
		case ">=":
			op = OpGe
		default:
			return nil, p.errorf("unsupported operator %q", t.text)
		}
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		conds = append(conds, Cond{Column: col, Op: op, Expr: e})
		if p.acceptKeyword("AND") {
			continue
		}
		break
	}
	return conds, nil
}

func (p *parser) selectStmt() (Statement, error) {
	if p.acceptKeyword("CHANGES") {
		return p.changes()
	}
	st := SelectStmt{Limit: -1}
	switch {
	case p.acceptSymbol("*"):
	case p.acceptKeyword("COUNT"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if err := p.expectSymbol("*"); err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Count = true
	default:
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if st.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ob := &OrderBy{Column: col}
		if p.acceptKeyword("DESC") {
			ob.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
		st.Order = ob
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
		st.Limit = n
	}
	return st, nil
}

// changes parses the rest of SELECT CHANGES FROM t SINCE origin, seq.
func (p *parser) changes() (Statement, error) {
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
	st := ChangesStmt{Table: name}
	if st.Since[0], err = p.expr(); err != nil {
		return nil, err
	}
	if err := p.expectSymbol(","); err != nil {
		return nil, err
	}
	if st.Since[1], err = p.expr(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) update() (Statement, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := UpdateStmt{Table: name}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, struct {
			Column string
			Expr   Expr
		}{col, e})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if st.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := DeleteStmt{Table: name}
	where, err := p.whereClause()
	if err != nil {
		return nil, err
	}
	st.Where = where
	return st, nil
}
