package minisql

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, sql string) statement {
	t.Helper()
	st, err := parse(sql)
	if err != nil {
		t.Fatalf("parse(%q): %v", sql, err)
	}
	return st
}

// mustReject fails unless parsing sql fails.
func mustReject(t *testing.T, sql string) {
	t.Helper()
	if st, err := parse(sql); err == nil {
		t.Errorf("parse(%q) = %+v, want an error", sql, st)
	}
}

func TestParseCreateTable(t *testing.T) {
	mustReject(t, `CREATE TABLE qos_rules (key VARCHAR(255) PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	st := mustParse(t, `CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	ct, ok := st.(createTableStmt)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.name != "qos_rules" || len(ct.columns) != 4 {
		t.Fatalf("stmt = %+v", ct)
	}
	if !ct.columns[0].pk || ct.columns[0].kind != KindText || ct.columns[0].name != "key" {
		t.Fatalf("pk col = %+v", ct.columns[0])
	}
	if ct.columns[1].kind != KindFloat {
		t.Fatalf("col1 = %+v", ct.columns[1])
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	st := mustParse(t, `create table if not exists t (a int)`)
	if !st.(createTableStmt).ifNotExists {
		t.Fatal("ifNotExists not set")
	}
}

// TestParseTypeAliases: a column is INT, FLOAT or TEXT; no other spelling
// of those types parses.
func TestParseTypeAliases(t *testing.T) {
	mustReject(t, `CREATE TABLE t (a INTEGER, b BIGINT, c DOUBLE, d REAL, e TEXT, f VARCHAR(10))`)
	for _, typ := range []string{"INTEGER", "BIGINT", "DOUBLE", "REAL", "VARCHAR(10)", "VARCHAR"} {
		mustReject(t, `CREATE TABLE t (a `+typ+` PRIMARY KEY)`)
	}
	st := mustParse(t, `CREATE TABLE t (a INT, b FLOAT, c TEXT)`)
	kinds := []Kind{KindInt, KindFloat, KindText}
	for i, c := range st.(createTableStmt).columns {
		if c.kind != kinds[i] {
			t.Errorf("col %d kind = %v, want %v", i, c.kind, kinds[i])
		}
	}
}

func TestParseInsert(t *testing.T) {
	mustReject(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (?, NULL)`)
	st := mustParse(t, `INSERT INTO t VALUES (1, 'x'), (?, NULL)`)
	ins := st.(insertStmt)
	if ins.table != "t" || ins.replace || len(ins.rows) != 2 {
		t.Fatalf("stmt = %+v", ins)
	}
	if ins.rows[0][0].value != Int(1) || ins.rows[0][1].value != Text("x") {
		t.Fatalf("row0 = %+v", ins.rows[0])
	}
	if !ins.rows[1][0].placeholder || !ins.rows[1][1].value.isNull() {
		t.Fatalf("row1 = %+v", ins.rows[1])
	}
}

func TestParseReplace(t *testing.T) {
	st := mustParse(t, `REPLACE INTO t VALUES (?, ?)`)
	if !st.(insertStmt).replace {
		t.Fatal("replace not set")
	}
}

func TestParseSelectStar(t *testing.T) {
	st := mustParse(t, `SELECT * FROM qos_rules`)
	sel := st.(selectStmt)
	if sel.table != "qos_rules" || len(sel.columns) != 0 || sel.limit != -1 || sel.where != nil {
		t.Fatalf("stmt = %+v", sel)
	}
}

func TestParseSelectFull(t *testing.T) {
	mustReject(t, `SELECT id, owner FROM photos WHERE owner = ? AND id > 100 ORDER BY id DESC LIMIT 20;`)
	st := mustParse(t, `SELECT id, owner FROM photos WHERE owner = ? ORDER BY id DESC LIMIT 20;`)
	sel := st.(selectStmt)
	if !reflect.DeepEqual(sel.columns, []string{"id", "owner"}) {
		t.Fatalf("cols = %v", sel.columns)
	}
	if sel.where == nil || sel.where.column != "owner" || !sel.where.key.placeholder {
		t.Fatalf("where = %+v", sel.where)
	}
	if sel.orderBy != "id" || !sel.desc || sel.limit != 20 {
		t.Fatalf("order/limit = %q %v %d", sel.orderBy, sel.desc, sel.limit)
	}
}

func TestParseSelectCount(t *testing.T) {
	mustReject(t, `SELECT COUNT(*) FROM t WHERE a <= 3`)
	st := mustParse(t, `SELECT COUNT(*) FROM t WHERE a = 3`)
	sel := st.(selectStmt)
	if !sel.count || sel.where.key.value != Int(3) {
		t.Fatalf("stmt = %+v", sel)
	}
}

func TestParseKeywordAsColumnName(t *testing.T) {
	// The paper's schema uses a column literally named "key".
	st := mustParse(t, `SELECT key, credit FROM qos_rules WHERE key = ?`)
	sel := st.(selectStmt)
	if sel.columns[0] != "key" || sel.where.column != "key" {
		t.Fatalf("stmt = %+v", sel)
	}
}

func TestParseUpdate(t *testing.T) {
	st := mustParse(t, `UPDATE qos_rules SET credit = ?, capacity = 10.5 WHERE key = ?`)
	up := st.(updateStmt)
	if up.table != "qos_rules" || len(up.sets) != 2 || up.where.column != "key" {
		t.Fatalf("stmt = %+v", up)
	}
	if up.sets[0].column != "credit" || !up.sets[0].value.placeholder {
		t.Fatalf("set0 = %+v", up.sets[0])
	}
	if up.sets[1].value.value != Float(10.5) {
		t.Fatalf("set1 = %+v", up.sets[1])
	}
}

func TestParseDelete(t *testing.T) {
	mustReject(t, `DELETE FROM t WHERE a != 'q''uoted'`)
	st := mustParse(t, `DELETE FROM t WHERE a = 'q''uoted'`)
	del := st.(deleteStmt)
	if del.where.column != "a" || del.where.key.value != Text("q'uoted") {
		t.Fatalf("stmt = %+v", del)
	}
}

// TestParseDeleteAll: DELETE and UPDATE name their row; neither parses
// without a WHERE.
func TestParseDeleteAll(t *testing.T) {
	mustReject(t, `DELETE FROM t`)
	mustReject(t, `UPDATE t SET a = 1`)
}

// TestParseOperators: = is the one comparison.
func TestParseOperators(t *testing.T) {
	if w := mustParse(t, "SELECT * FROM t WHERE a = 1").(selectStmt).where; w == nil || w.key.value != Int(1) {
		t.Fatalf("where = %+v", w)
	}
	for _, op := range []string{"!=", "<>", "<", "<=", ">", ">="} {
		mustReject(t, "SELECT * FROM t WHERE a "+op+" 1")
	}
	mustReject(t, "SELECT * FROM t WHERE a = 1 AND b = 2")
	mustReject(t, "SELECT * FROM t WHERE a = 1 OR a = 2")
}

func TestParseNegativeAndFloatNumbers(t *testing.T) {
	mustReject(t, `SELECT * FROM t WHERE a = -12 AND b = 3.5e2`)
	row := mustParse(t, `INSERT INTO t VALUES (-12, 3.5e2)`).(insertStmt).rows[0]
	if row[0].value != Int(-12) {
		t.Fatalf("neg = %+v", row[0].value)
	}
	if row[1].value != Float(350) {
		t.Fatalf("float = %+v", row[1].value)
	}
}

func TestParseQuotedIdentifier(t *testing.T) {
	mustReject(t, "SELECT * FROM `my table`")
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
		mustReject(t, sql)
	}
}

func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(s string) bool {
		parse(s)
		parse("SELECT " + s)
		parse("INSERT INTO t VALUES ('" + strings.ReplaceAll(s, "'", "''") + "')")
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
