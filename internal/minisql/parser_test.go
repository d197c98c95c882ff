package minisql

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, `CREATE TABLE qos_rules (key VARCHAR(255) PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	ct, ok := st.(CreateTableStmt)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Name != "qos_rules" || len(ct.Columns) != 4 {
		t.Fatalf("stmt = %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || ct.Columns[0].Kind != KindText || ct.Columns[0].Name != "key" {
		t.Fatalf("pk col = %+v", ct.Columns[0])
	}
	if ct.Columns[1].Kind != KindFloat {
		t.Fatalf("col1 = %+v", ct.Columns[1])
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	st := mustParse(t, `create table if not exists t (a int)`)
	if !st.(CreateTableStmt).IfNotExists {
		t.Fatal("IfNotExists not set")
	}
}

func TestParseTypeAliases(t *testing.T) {
	st := mustParse(t, `CREATE TABLE t (a INTEGER, b BIGINT, c DOUBLE, d REAL, e TEXT, f VARCHAR(10))`)
	kinds := []Kind{KindInt, KindInt, KindFloat, KindFloat, KindText, KindText}
	for i, c := range st.(CreateTableStmt).Columns {
		if c.Kind != kinds[i] {
			t.Errorf("col %d kind = %v, want %v", i, c.Kind, kinds[i])
		}
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (?, NULL)`)
	ins := st.(InsertStmt)
	if ins.Table != "t" || ins.Replace || len(ins.Rows) != 2 {
		t.Fatalf("stmt = %+v", ins)
	}
	if !reflect.DeepEqual(ins.Columns, []string{"a", "b"}) {
		t.Fatalf("cols = %v", ins.Columns)
	}
	if ins.Rows[0][0].Value != Int(1) || ins.Rows[0][1].Value != Text("x") {
		t.Fatalf("row0 = %+v", ins.Rows[0])
	}
	if !ins.Rows[1][0].Placeholder || !ins.Rows[1][1].Value.isNull() {
		t.Fatalf("row1 = %+v", ins.Rows[1])
	}
}

func TestParseReplace(t *testing.T) {
	st := mustParse(t, `REPLACE INTO t VALUES (?, ?)`)
	if !st.(InsertStmt).Replace {
		t.Fatal("Replace not set")
	}
}

func TestParseSelectStar(t *testing.T) {
	st := mustParse(t, `SELECT * FROM qos_rules`)
	sel := st.(SelectStmt)
	if sel.Table != "qos_rules" || len(sel.Columns) != 0 || sel.Limit != -1 || sel.Where != nil {
		t.Fatalf("stmt = %+v", sel)
	}
}

func TestParseSelectFull(t *testing.T) {
	st := mustParse(t, `SELECT id, owner FROM photos WHERE owner = ? AND id > 100 ORDER BY id DESC LIMIT 20;`)
	sel := st.(SelectStmt)
	if !reflect.DeepEqual(sel.Columns, []string{"id", "owner"}) {
		t.Fatalf("cols = %v", sel.Columns)
	}
	if len(sel.Where) != 2 || sel.Where[0].Op != OpEq || !sel.Where[0].Expr.Placeholder {
		t.Fatalf("where = %+v", sel.Where)
	}
	if sel.Where[1].Op != OpGt || sel.Where[1].Expr.Value != Int(100) {
		t.Fatalf("where[1] = %+v", sel.Where[1])
	}
	if sel.Order == nil || sel.Order.Column != "id" || !sel.Order.Desc || sel.Limit != 20 {
		t.Fatalf("order/limit = %+v %d", sel.Order, sel.Limit)
	}
}

func TestParseSelectCount(t *testing.T) {
	st := mustParse(t, `SELECT COUNT(*) FROM t WHERE a <= 3`)
	sel := st.(SelectStmt)
	if !sel.Count || sel.Where[0].Op != OpLe {
		t.Fatalf("stmt = %+v", sel)
	}
}

func TestParseKeywordAsColumnName(t *testing.T) {
	// The paper's schema uses a column literally named "key".
	st := mustParse(t, `SELECT key, credit FROM qos_rules WHERE key = ?`)
	sel := st.(SelectStmt)
	if sel.Columns[0] != "key" || sel.Where[0].Column != "key" {
		t.Fatalf("stmt = %+v", sel)
	}
}

func TestParseUpdate(t *testing.T) {
	st := mustParse(t, `UPDATE qos_rules SET credit = ?, capacity = 10.5 WHERE key = ?`)
	up := st.(UpdateStmt)
	if up.Table != "qos_rules" || len(up.Sets) != 2 {
		t.Fatalf("stmt = %+v", up)
	}
	if up.Sets[0].Column != "credit" || !up.Sets[0].Expr.Placeholder {
		t.Fatalf("set0 = %+v", up.Sets[0])
	}
	if up.Sets[1].Expr.Value != Float(10.5) {
		t.Fatalf("set1 = %+v", up.Sets[1])
	}
}

func TestParseDelete(t *testing.T) {
	st := mustParse(t, `DELETE FROM t WHERE a != 'q''uoted'`)
	del := st.(DeleteStmt)
	if del.Where[0].Op != OpNe || del.Where[0].Expr.Value != Text("q'uoted") {
		t.Fatalf("stmt = %+v", del)
	}
}

func TestParseDeleteAll(t *testing.T) {
	st := mustParse(t, `DELETE FROM t`)
	if st.(DeleteStmt).Where != nil {
		t.Fatal("unexpected where")
	}
}

func TestParseOperators(t *testing.T) {
	for text, op := range map[string]CondOp{
		"=": OpEq, "!=": OpNe, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
	} {
		st := mustParse(t, "SELECT * FROM t WHERE a "+text+" 1")
		if got := st.(SelectStmt).Where[0].Op; got != op {
			t.Errorf("op %q parsed as %q", text, got)
		}
	}
}

func TestParseNegativeAndFloatNumbers(t *testing.T) {
	st := mustParse(t, `SELECT * FROM t WHERE a = -12 AND b = 3.5e2`)
	sel := st.(SelectStmt)
	if sel.Where[0].Expr.Value != Int(-12) {
		t.Fatalf("neg = %+v", sel.Where[0].Expr.Value)
	}
	if sel.Where[1].Expr.Value != Float(350) {
		t.Fatalf("float = %+v", sel.Where[1].Expr.Value)
	}
}

func TestParseQuotedIdentifier(t *testing.T) {
	st := mustParse(t, "SELECT * FROM `my table`")
	if st.(SelectStmt).Table != "my table" {
		t.Fatalf("table = %q", st.(SelectStmt).Table)
	}
}

func TestParseErrors(t *testing.T) {
	for _, sql := range []string{
		"",
		"FROBNICATE",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a ==",
		"SELECT * FROM t LIMIT x",
		"SELECT * FROM t extra tokens",
		"CREATE TABLE t",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a BOGUS)",
		"INSERT INTO t VALUES",
		"INSERT t VALUES (1)",
		"UPDATE t WHERE a = 1",
		"DELETE t",
		"SELECT * FROM t WHERE a = 'unterminated",
		"SELECT * FROM t WHERE a ! 1",
		"SELECT * FROM t WHERE a = $1",
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", sql)
		}
	}
}

func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		Parse(s)
		Parse("SELECT " + s)
		Parse("INSERT INTO t VALUES ('" + strings.ReplaceAll(s, "'", "''") + "')")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lex("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].pos != 0 || toks[1].pos != 7 || toks[2].pos != 9 {
		t.Fatalf("positions = %d %d %d", toks[0].pos, toks[1].pos, toks[2].pos)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("missing EOF token")
	}
}
