package minisql

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	return e
}

func mustExec(t *testing.T, e *Engine, sql string, args ...Value) Result {
	t.Helper()
	res, err := e.Execute(sql, args...)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	res := mustExec(t, e, `INSERT INTO qos_rules VALUES ('alice', 100, 1000, 1000), ('bob', 10, 100, 100)`)
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	res = mustExec(t, e, `SELECT * FROM qos_rules WHERE key = ?`, Text("alice"))
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0] != Text("alice") || row[1] != Float(100) || row[2] != Float(1000) || row[3] != Float(1000) {
		t.Fatalf("row = %v", row)
	}
	if len(res.Columns) != 4 || res.Columns[0] != "key" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestSelectMissingKeyReturnsEmpty(t *testing.T) {
	e := newTestEngine(t)
	res := mustExec(t, e, `SELECT * FROM qos_rules WHERE key = ?`, Text("ghost"))
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDuplicatePrimaryKeyRejected(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `INSERT INTO qos_rules VALUES ('a', 1, 1, 1)`)
	if _, err := e.Execute(`INSERT INTO qos_rules VALUES ('a', 2, 2, 2)`); err == nil {
		t.Fatal("duplicate PK accepted")
	}
	// Row unchanged.
	res := mustExec(t, e, `SELECT refill_rate FROM qos_rules WHERE key = 'a'`)
	if res.Rows[0][0] != Float(1) {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

func TestReplaceUpserts(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `REPLACE INTO qos_rules VALUES ('a', 1, 10, 10)`)
	mustExec(t, e, `REPLACE INTO qos_rules VALUES ('a', 2, 20, 20)`)
	res := mustExec(t, e, `SELECT capacity FROM qos_rules WHERE key = 'a'`)
	if res.Rows[0][0] != Float(20) {
		t.Fatalf("capacity = %v", res.Rows[0][0])
	}
	if n, _ := e.rowCount("qos_rules"); n != 1 {
		t.Fatalf("rows = %d", n)
	}
}

func TestUpdateByPrimaryKey(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `INSERT INTO qos_rules VALUES ('a', 1, 10, 10)`)
	res := mustExec(t, e, `UPDATE qos_rules SET credit = ? WHERE key = ?`, Float(3.5), Text("a"))
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	got := mustExec(t, e, `SELECT credit FROM qos_rules WHERE key = 'a'`)
	if got.Rows[0][0] != Float(3.5) {
		t.Fatalf("credit = %v", got.Rows[0][0])
	}
	// Update of a missing key affects zero rows, no error.
	res = mustExec(t, e, `UPDATE qos_rules SET credit = 1 WHERE key = 'missing'`)
	if res.Affected != 0 {
		t.Fatalf("affected = %d", res.Affected)
	}
}

// TestUpdatePrimaryKeyMaintainsIndex: an UPDATE cannot move a row to another
// key, so the index keeps every row where it was.
func TestUpdatePrimaryKeyMaintainsIndex(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `INSERT INTO qos_rules VALUES ('old', 1, 10, 10)`)
	if _, err := e.Execute(`UPDATE qos_rules SET key = 'new' WHERE key = 'old'`); err == nil {
		t.Fatal("UPDATE moved a row to another key")
	}
	if len(mustExec(t, e, `SELECT * FROM qos_rules WHERE key = 'old'`).Rows) != 1 {
		t.Fatal("old key does not resolve")
	}
	if len(mustExec(t, e, `SELECT * FROM qos_rules WHERE key = 'new'`).Rows) != 0 {
		t.Fatal("new key resolves")
	}
	mustExec(t, e, `INSERT INTO qos_rules VALUES ('other', 1, 1, 1)`)
	if _, err := e.Execute(`UPDATE qos_rules SET key = 'new' WHERE key = 'other'`); err == nil {
		t.Fatal("UPDATE moved a row to another key")
	}
}

func TestDeleteMaintainsIndex(t *testing.T) {
	e := newTestEngine(t)
	for i := 0; i < 10; i++ {
		mustExec(t, e, `INSERT INTO qos_rules VALUES (?, 1, 1, 1)`, Text(fmt.Sprintf("k%d", i)))
	}
	res := mustExec(t, e, `DELETE FROM qos_rules WHERE key = 'k3'`)
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	// The swap-removed row (previously last) must still be findable by PK.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		want := 1
		if i == 3 {
			want = 0
		}
		if got := len(mustExec(t, e, `SELECT * FROM qos_rules WHERE key = ?`, Text(k)).Rows); got != want {
			t.Errorf("key %s: rows = %d, want %d", k, got, want)
		}
	}
	if n, _ := e.rowCount("qos_rules"); n != 9 {
		t.Fatalf("rows = %d", n)
	}
}

// TestDeleteRangePredicate: a range is no WHERE; the rows stay.
func TestDeleteRangePredicate(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, e, `INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(int64(i%5)))
	}
	if _, err := e.Execute(`DELETE FROM t WHERE v >= 3`); err == nil {
		t.Fatal("DELETE with a range succeeded")
	}
	count := mustExec(t, e, `SELECT COUNT(*) FROM t`)
	if count.Rows[0][0] != Int(20) {
		t.Fatalf("count = %v", count.Rows[0][0])
	}
	if _, err := e.Execute(`SELECT * FROM t WHERE v < 3`); err == nil {
		t.Fatal("SELECT with a range succeeded")
	}
}

// TestFullScanAndConjunction: a WHERE is one equality on the primary key,
// never a conjunction or a scan on another column.
func TestFullScanAndConjunction(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'x'), (3, 20, 'y')`)
	for _, sql := range []string{`SELECT id FROM t WHERE a = 20 AND b = 'x'`, `SELECT id FROM t WHERE a = 20`, `SELECT id FROM t WHERE id = 2 AND b = 'x'`} {
		if res, err := e.Execute(sql); err == nil {
			t.Errorf("%s = %v, want an error", sql, res.Rows)
		}
	}
	if res := mustExec(t, e, `SELECT id FROM t`); len(res.Rows) != 3 {
		t.Fatalf("scan = %v", res.Rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE photos (id INT PRIMARY KEY, owner TEXT)`)
	for i := 1; i <= 50; i++ {
		mustExec(t, e, `INSERT INTO photos VALUES (?, 'u')`, Int(int64(i)))
	}
	res := mustExec(t, e, `SELECT id FROM photos ORDER BY id DESC LIMIT 5`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, want := range []int64{50, 49, 48, 47, 46} {
		if res.Rows[i][0] != Int(want) {
			t.Fatalf("row %d = %v, want %d", i, res.Rows[i][0], want)
		}
	}
	asc := mustExec(t, e, `SELECT id FROM photos ORDER BY id ASC LIMIT 2`)
	if asc.Rows[0][0] != Int(1) || asc.Rows[1][0] != Int(2) {
		t.Fatalf("asc rows = %v", asc.Rows)
	}
}

// TestOrderByLimitMatchesStableSort holds the bounded top-n selection of
// ORDER BY [LIMIT] to what it replaced: a stable sort of every row, in
// storage order, truncated to the limit. The tables are random with many
// ties and NULLs, and deletes move rows, so storage order is not insertion
// order.
func TestOrderByLimitMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		e := NewEngine()
		mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY, v INT, s TEXT)`)
		n := 1 + rng.Intn(60)
		for id := 0; id < n; id++ {
			v, s := Int(int64(rng.Intn(4))), Text(string(rune('a'+rng.Intn(3))))
			if rng.Intn(8) == 0 {
				v = null()
			}
			mustExec(t, e, `INSERT INTO t VALUES (?, ?, ?)`, Int(int64(id)), v, s)
		}
		for id := 0; id < n; id++ {
			if rng.Intn(5) == 0 {
				mustExec(t, e, `DELETE FROM t WHERE id = ?`, Int(int64(id)))
			}
		}
		stored := mustExec(t, e, `SELECT * FROM t`).Rows
		k := len(stored) / 2
		for _, col := range []int{1, 2} {
			for _, desc := range []bool{false, true} {
				for _, limit := range []int{-1, 0, 1, k, len(stored), len(stored) + 1} { // -1: no LIMIT
					want := slices.Clone(stored)
					slices.SortStableFunc(want, func(a, b []Value) int {
						if desc {
							a, b = b, a
						}
						return compare(a[col], b[col])
					})
					dir := "ASC"
					if desc {
						dir = "DESC"
					}
					sql := fmt.Sprintf(`SELECT * FROM t ORDER BY %s %s`, []string{"id", "v", "s"}[col], dir)
					if limit >= 0 {
						want = want[:min(limit, len(want))]
						sql += fmt.Sprintf(` LIMIT %d`, limit)
					}
					if got := mustExec(t, e, sql).Rows; fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("trial %d: %s\n got %v\nwant %v", trial, sql, got, want)
					}
				}
			}
		}
	}
}

func TestSelectCountStar(t *testing.T) {
	e := newTestEngine(t)
	for i := 0; i < 7; i++ {
		mustExec(t, e, `INSERT INTO qos_rules VALUES (?, 1, 1, 1)`, Text(fmt.Sprintf("k%d", i)))
	}
	res := mustExec(t, e, `SELECT COUNT(*) FROM qos_rules`)
	if res.Rows[0][0] != Int(7) {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestTypeCoercion(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY, f FLOAT, s TEXT)`)
	// Int into float column, int into text column, numeric text into int.
	mustExec(t, e, `INSERT INTO t VALUES ('42', 7, 99)`)
	res := mustExec(t, e, `SELECT * FROM t WHERE id = 42`)
	if len(res.Rows) != 1 {
		t.Fatalf("coerced PK lookup failed: %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0] != Int(42) || row[1] != Float(7) || row[2] != Text("99") {
		t.Fatalf("row = %v", row)
	}
	// Non-numeric text into int column is an error.
	if _, err := e.Execute(`INSERT INTO t VALUES ('abc', 1, 'x')`); err == nil {
		t.Fatal("bad coercion accepted")
	}
}

func TestNullHandling(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, NULL)`)
	res := mustExec(t, e, `SELECT v FROM t WHERE id = 1`)
	if !res.Rows[0][0].isNull() {
		t.Fatalf("v = %v", res.Rows[0][0])
	}
	// NULL PK rejected.
	if _, err := e.Execute(`INSERT INTO t VALUES (NULL, 1)`); err == nil {
		t.Fatal("NULL PK accepted")
	}
}

// TestInsertColumnSubset: an INSERT writes whole rows; a column list does
// not parse, and a short row is an error.
func TestInsertColumnSubset(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY, a INT, b TEXT)`)
	for _, sql := range []string{`INSERT INTO t (id, b) VALUES (1, 'hi')`, `INSERT INTO t VALUES (1, 'hi')`} {
		if _, err := e.Execute(sql); err == nil {
			t.Errorf("%s succeeded", sql)
		}
	}
	mustExec(t, e, `INSERT INTO t VALUES (1, NULL, 'hi')`)
	res := mustExec(t, e, `SELECT a, b FROM t WHERE id = 1`)
	if !res.Rows[0][0].isNull() || res.Rows[0][1] != Text("hi") {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

// removedForms are SQL forms that minisql does not run, one input each:
// comparisons other than =, AND/OR, a WHERE on a column other than the
// primary key, INSERT column lists, type aliases, back-quoted identifiers,
// UPDATE and DELETE without a WHERE, and an UPDATE that sets the key.
var removedForms = []string{
	`SELECT * FROM qos_rules WHERE credit != 1`,
	`SELECT * FROM qos_rules WHERE credit <> 1`,
	`SELECT key FROM qos_rules WHERE credit < 1`,
	`DELETE FROM qos_rules WHERE credit <= 1`,
	`UPDATE qos_rules SET credit = 0 WHERE credit > 1`,
	`SELECT COUNT(*) FROM qos_rules WHERE credit >= 1`,
	`DELETE FROM qos_rules WHERE key = 'a' AND credit = 1`,
	`UPDATE qos_rules SET credit = 0 WHERE key = 'a' OR key = 'b'`,
	`SELECT key FROM qos_rules WHERE credit = 1`,
	`UPDATE qos_rules SET credit = 0 WHERE capacity = 10`,
	`DELETE FROM qos_rules WHERE refill_rate = 1`,
	`INSERT INTO qos_rules (key, credit) VALUES ('n', 1)`,
	`REPLACE INTO qos_rules (key, refill_rate, capacity, credit) VALUES ('a', 9, 9, 9)`,
	`CREATE TABLE t (id INTEGER PRIMARY KEY)`,
	`CREATE TABLE t (id BIGINT PRIMARY KEY)`,
	`CREATE TABLE t (id INT PRIMARY KEY, v DOUBLE)`,
	`CREATE TABLE t (id INT PRIMARY KEY, v REAL)`,
	`CREATE TABLE t (id VARCHAR(10) PRIMARY KEY)`,
	"SELECT * FROM `qos_rules`",
	"UPDATE qos_rules SET `credit` = 0 WHERE key = 'a'",
	`UPDATE qos_rules SET credit = 0`,
	`DELETE FROM qos_rules`,
	`UPDATE qos_rules SET key = 'moved' WHERE key = 'a'`,
	`UPDATE qos_rules SET credit = 0, key = 'a' WHERE key = 'a'`,
}

// TestRemovedFormsChangeNothing: each removed form, sent to an engine that
// holds rows, fails and leaves the tables, the feed head and every row as
// they were.
func TestRemovedFormsChangeNothing(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `INSERT INTO qos_rules VALUES ('a', 1, 10, 1), ('b', 1, 10, 2), ('c', 2, 20, 3)`)
	state := func() string {
		head, _ := feedState(t, e, "qos_rules")
		rows := mustExec(t, e, `SELECT * FROM qos_rules ORDER BY key`).Rows
		return fmt.Sprint(e.tableNames(), e.Snapshot().At.Seq, head, rows)
	}
	before := state()
	for _, sql := range removedForms {
		if res, err := e.Execute(sql); err == nil {
			t.Errorf("%s = %+v, want an error", sql, res)
		}
		if now := state(); now != before {
			t.Fatalf("%s changed the database:\n%s\nwas\n%s", sql, now, before)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	e := newTestEngine(t)
	for _, c := range []struct {
		sql  string
		args []Value
	}{
		{`SELECT * FROM nope`, nil},
		{`SELECT nope FROM qos_rules`, nil},
		{`SELECT * FROM qos_rules WHERE nope = 1`, nil},
		{`INSERT INTO qos_rules (nope) VALUES (1)`, nil},
		{`INSERT INTO qos_rules VALUES (1)`, nil},                       // arity
		{`SELECT * FROM qos_rules WHERE key = ?`, nil},                  // missing arg
		{`UPDATE qos_rules SET nope = 1 WHERE key = 'a'`, nil},          // bad set col
		{`SELECT * FROM qos_rules ORDER BY nope`, nil},                  // bad order col
		{`DELETE FROM qos_rules WHERE nope = 1`, nil},                   // bad where col
		{`CREATE TABLE qos_rules (key TEXT PRIMARY KEY)`, nil},          // exists
		{`CREATE TABLE t2 (a INT PRIMARY KEY, a INT)`, nil},             // dup col
		{`CREATE TABLE t3 (a INT PRIMARY KEY, b INT PRIMARY KEY)`, nil}, // two PKs
		{`CREATE TABLE heap (v INT)`, nil},                              // no PK
	} {
		if _, err := e.Execute(c.sql, c.args...); err == nil {
			t.Errorf("Execute(%q) succeeded, want error", c.sql)
		}
	}
}

func TestCreateTableIfNotExistsIdempotent(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE IF NOT EXISTS qos_rules (key TEXT PRIMARY KEY)`)
	// Original schema preserved (4 columns).
	sch, err := e.schemaOf("qos_rules")
	if err != nil || len(sch) != 4 {
		t.Fatalf("schema = %v, %v", sch, err)
	}
}

func TestTableNames(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE b (x INT PRIMARY KEY)`)
	mustExec(t, e, `CREATE TABLE a (x INT PRIMARY KEY)`)
	names := e.tableNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

// TestCutHoldsChangedRowsOnly: what a standby reads after its cursor is each
// key a write changed, once, at its latest state. Reads and writes that
// change nothing leave it nothing to read.
func TestCutHoldsChangedRowsOnly(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `INSERT INTO qos_rules VALUES ('a', 1, 1, 1), ('b', 1, 1, 1)`)
	cur := e.Snapshot().At
	mustExec(t, e, `SELECT * FROM qos_rules`)
	mustExec(t, e, `UPDATE qos_rules SET credit = 1 WHERE key = 'a'`)       // the same value
	mustExec(t, e, `UPDATE qos_rules SET credit = 0 WHERE key = 'missing'`) // 0 rows
	if snap, _, wait := e.since(cur); wait == nil {
		t.Fatalf("nothing changed, yet the cut holds %+v", snap)
	}
	mustExec(t, e, `UPDATE qos_rules SET credit = 0 WHERE key = 'a'`)
	mustExec(t, e, `UPDATE qos_rules SET credit = 5 WHERE key = 'a'`)
	mustExec(t, e, `DELETE FROM qos_rules WHERE key = 'b'`)
	snap, reset, _ := e.since(cur)
	want := fmt.Sprint([][]Value{
		{Int(cur.Seq + 2), Bool(false), Text("a"), Float(1), Float(1), Float(5)},
		{Int(cur.Seq + 3), Bool(true), Text("b"), null(), null(), null()},
	})
	if reset || len(snap.Tables) != 1 || fmt.Sprint(snap.Tables[0].Rows) != want || snap.At.Seq != cur.Seq+3 {
		t.Fatalf("cut after %+v: reset %v, %+v; want %s up to %d", cur, reset, snap, want, cur.Seq+3)
	}
}

func TestConcurrentPointWrites(t *testing.T) {
	// The paper's workload: concurrent QoS servers checkpointing different
	// keys. Verify isolation and final state.
	e := newTestEngine(t)
	const keys = 32
	for i := 0; i < keys; i++ {
		mustExec(t, e, `INSERT INTO qos_rules VALUES (?, 1, 1000, 1000)`, Text(fmt.Sprintf("k%d", i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w*7+i)%keys)
				if _, err := e.Execute(`UPDATE qos_rules SET credit = ? WHERE key = ?`, Float(float64(i)), Text(k)); err != nil {
					t.Errorf("update: %v", err)
					return
				}
				if _, err := e.Execute(`SELECT credit FROM qos_rules WHERE key = ?`, Text(k)); err != nil {
					t.Errorf("select: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := e.rowCount("qos_rules"); n != keys {
		t.Fatalf("rows = %d", n)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	mustExec(t, e, `CREATE TABLE t2 (id INT PRIMARY KEY, v TEXT)`)
	for i := 0; i < 100; i++ {
		mustExec(t, e, `INSERT INTO qos_rules VALUES (?, 1, 2, 3)`, Text(fmt.Sprintf("k%d", i)))
		mustExec(t, e, `INSERT INTO t2 VALUES (?, ?)`, Int(int64(i)), Text(strings.Repeat("v", i%5)))
	}
	snap := e.Snapshot()
	e2 := NewEngine()
	if err := e2.apply(snap, true); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"qos_rules", "t2"} {
		n1, _ := e.rowCount(table)
		n2, _ := e2.rowCount(table)
		if n1 != n2 {
			t.Fatalf("%s rows: %d vs %d", table, n1, n2)
		}
	}
	// PK index works on the restored engine.
	res := mustExec(t, e2, `SELECT v FROM t2 WHERE id = 4`)
	if res.Rows[0][0] != Text("vvvv") {
		t.Fatalf("row = %v", res.Rows[0])
	}
	// Restored engine is independent.
	mustExec(t, e2, `DELETE FROM t2 WHERE id = 4`)
	if len(mustExec(t, e, `SELECT * FROM t2 WHERE id = 4`).Rows) != 1 {
		t.Fatal("restore aliased original storage")
	}
}

func TestValueCompareProperty(t *testing.T) {
	// Compare must be antisymmetric and consistent with Equal.
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return compare(va, vb) == -compare(vb, va) &&
			(compare(va, vb) == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	g := func(a, b string) bool {
		va, vb := Text(a), Text(b)
		return compare(va, vb) == -compare(vb, va)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompareMixed(t *testing.T) {
	if compare(Int(3), Float(3.0)) != 0 {
		t.Error("int/float equality broken")
	}
	if compare(Int(3), Float(3.5)) >= 0 {
		t.Error("int/float order broken")
	}
	if compare(null(), Int(0)) >= 0 {
		t.Error("NULL must sort first")
	}
	if compare(null(), null()) != 0 {
		t.Error("NULL != NULL under Compare")
	}
	if compare(Int(5), Text("5")) == 0 {
		t.Error("number must not equal text")
	}
	if compare(Text("a"), Int(5)) != -compare(Int(5), Text("a")) {
		t.Error("mixed compare not antisymmetric")
	}
}

func TestValueCoercionHelpers(t *testing.T) {
	if Int(7).AsFloat() != 7 || Float(2.5).AsInt() != 2 || Text("11").AsInt() != 11 {
		t.Error("numeric coercions broken")
	}
	if Int(7).AsText() != "7" || null().AsText() != "" {
		t.Error("text coercions broken")
	}
	if Bool(true) != Int(1) || Bool(false) != Int(0) {
		t.Error("bool encoding broken")
	}
	if null().String() != "NULL" || Text("x").String() != "'x'" {
		t.Error("String() rendering broken")
	}
	if KindText.String() != "TEXT" || Kind(9).String() == "" {
		t.Error("kind strings broken")
	}
}

func TestStatementCacheBounded(t *testing.T) {
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE t (id INT PRIMARY KEY)`)
	for i := 0; i < 5000; i++ {
		mustExec(t, e, fmt.Sprintf(`SELECT * FROM t WHERE id = %d`, i))
	}
	e.cacheMu.RLock()
	n := len(e.stmtCache)
	e.cacheMu.RUnlock()
	if n > 4097 {
		t.Fatalf("statement cache grew unbounded: %d", n)
	}
}
