package minisql

import (
	"fmt"
	"testing"
)

// benchKeys names the keys k0..k(n-1) as values, so that a benchmark's
// timed loop formats nothing.
func benchKeys(n int) []Value {
	keys := make([]Value, n)
	for i := range keys {
		keys[i] = Text(fmt.Sprintf("k%d", i))
	}
	return keys
}

func benchEngine(b *testing.B, rows int) *Engine {
	b.Helper()
	e := NewEngine()
	if _, err := e.Execute(`CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`); err != nil {
		b.Fatal(err)
	}
	for _, k := range benchKeys(rows) {
		if _, err := e.Execute(`INSERT INTO qos_rules VALUES (?, 1, 2, 3)`, k); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

// BenchmarkPointSelect is the QoS server's rule-fetch statement.
func BenchmarkPointSelect(b *testing.B) {
	e := benchEngine(b, 10000)
	keys := benchKeys(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(`SELECT key, refill_rate, capacity, credit FROM qos_rules WHERE key = ?`,
			keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPointUpdate is the checkpoint statement.
func BenchmarkPointUpdate(b *testing.B) {
	e := benchEngine(b, 10000)
	keys := benchKeys(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(`UPDATE qos_rules SET credit = ? WHERE key = ?`,
			Float(float64(i)), keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplaceUpsert is the rule-management statement.
func BenchmarkReplaceUpsert(b *testing.B) {
	e := benchEngine(b, 0)
	keys := benchKeys(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Execute(`REPLACE INTO qos_rules VALUES (?, 1, 2, 3)`, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullScan is the warm-up SELECT * (paper §III-D).
func BenchmarkFullScan(b *testing.B) {
	e := benchEngine(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Execute(`SELECT * FROM qos_rules`)
		if err != nil || len(res.Rows) != 10000 {
			b.Fatalf("rows=%d err=%v", len(res.Rows), err)
		}
	}
}

// BenchmarkPointSelectOverTCP measures the networked path used by the real
// deployment.
func BenchmarkPointSelectOverTCP(b *testing.B) {
	e := benchEngine(b, 1000)
	srv, err := NewServer(e, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	keys := benchKeys(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Execute(`SELECT credit FROM qos_rules WHERE key = ?`,
			keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseStatement measures the parser (uncached path).
func BenchmarkParseStatement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := parse(`SELECT key, refill_rate, capacity, credit FROM qos_rules WHERE key = ? ORDER BY key DESC LIMIT 5`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderByLimit is the photo app's index query (internal/app) on a
// table of 100 000 photos: the newest 24 by id.
func BenchmarkOrderByLimit(b *testing.B) {
	e := NewEngine()
	if _, err := e.Execute(`CREATE TABLE photos (id INT PRIMARY KEY, owner TEXT, title TEXT, uploaded INT)`); err != nil {
		b.Fatal(err)
	}
	const rows = 100000
	for i := 0; i < rows; i += 250 {
		stmt, args := `INSERT INTO photos VALUES (?, 'u', 't', ?)`, []Value{Int(int64(i)), Int(int64(i))}
		for j := i + 1; j < i+250; j++ {
			stmt += `, (?, 'u', 't', ?)`
			args = append(args, Int(int64(j)), Int(int64(j)))
		}
		if _, err := e.Execute(stmt, args...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Execute(`SELECT id, owner, title, uploaded FROM photos ORDER BY id DESC LIMIT 24`)
		if err != nil || len(res.Rows) != 24 || res.Rows[0][0] != Int(rows-1) {
			b.Fatalf("rows=%v err=%v", res.Rows, err)
		}
	}
}
