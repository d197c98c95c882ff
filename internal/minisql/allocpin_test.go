package minisql

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestPointSelectAllocPin: store.Get's statement through a warmed Client
// over loopback. AllocsPerRun counts the whole process, so the budget is
// both ends of the connection plus the engine: a miss allocates nothing,
// since the server looks the key up from the frame's bytes; a hit allocates
// the engine's row list and the one array that holds the row's values, and
// the client's row list, row and key string. Neither end allocates for the
// frame itself, the SQL text, the argument list or the projection, and no
// column names travel.
func TestPointSelectAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins run uninstrumented")
	}
	srv, e := startServer(t)
	mustExec(t, e, `CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	mustExec(t, e, `INSERT INTO qos_rules VALUES ('present', 1, 2, 3)`)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const get = `SELECT key, refill_rate, capacity, credit FROM qos_rules WHERE key = ?`
	for _, tc := range []struct {
		key    Value
		rows   int
		allocs float64
	}{
		{Text("absent"), 0, 0},
		{Text("present"), 1, 5},
	} {
		run := func() {
			if res, err := c.Execute(get, tc.key); err != nil || len(res.Rows) != tc.rows {
				t.Fatalf("%v: %+v, %v", tc.key, res, err)
			}
		}
		run()
		if n := testing.AllocsPerRun(200, run); n != tc.allocs {
			t.Errorf("point select of %v allocates %v times per round trip, want %v", tc.key, n, tc.allocs)
		}
	}
}

// TestCheckpointUpdateAllocPin: a checkpoint's statement (store.checkpoint)
// through a warmed Client over loopback, each one changing a credit, cycling
// through three keys. It allocates nothing on either end: the key is looked
// up from the frame's bytes, and the SET list has a constant capacity, so it
// stays on the stack. The change log grows to its compaction bound during
// the warm-up.
func TestCheckpointUpdateAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins run uninstrumented")
	}
	srv, e := startServer(t)
	mustExec(t, e, `CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	keys := []Value{Text("k0"), Text("k1"), Text("k2")}
	for _, k := range keys {
		mustExec(t, e, `INSERT INTO qos_rules VALUES (?, 1, 2, 3)`, k)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	i := 0
	run := func() {
		i++
		if res, err := c.Execute(`UPDATE qos_rules SET credit = ? WHERE key = ?`, Float(float64(i)), keys[i%len(keys)]); err != nil || res.Affected != 1 {
			t.Fatalf("update: %+v, %v", res, err)
		}
	}
	for range 200 {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Errorf("a checkpoint update allocates %v times per round trip, want 0", n)
	}
	if got := mustExec(t, e, `SELECT credit FROM qos_rules WHERE key = ?`, keys[i%len(keys)]).Rows[0][0].F; got != float64(i) {
		t.Errorf("credit after the last update = %v, want %v", got, i)
	}
}

// TestAllocPinRuleRowBytes bounds what janus-dbd holds per rule: the live
// heap that 10 000 qos_rules rows add, loaded the way store.PutAll loads
// them (REPLACE batches of 256 rows), with every key a string the engine
// made, as a served statement's keys are. A row is its value array and key
// string, its slot in the primary-key index, its sequence number and its
// change-log entry.
func TestAllocPinRuleRowBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins run uninstrumented")
	}
	const rules, batch, limit = 10_000, 256, 330
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := NewEngine()
	mustExec(t, e, `CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	args := make([]Value, 0, 4*batch)
	for i := 0; i < rules; i += batch {
		n := min(batch, rules-i)
		args = args[:0]
		for j := i; j < i+n; j++ {
			args = append(args, Text(fmt.Sprintf("key-%05d", j)), Float(1), Float(100), Float(100))
		}
		mustExec(t, e, `REPLACE INTO qos_rules VALUES (?, ?, ?, ?)`+strings.Repeat(`, (?, ?, ?, ?)`, n-1), args...)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRule := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / rules
	if n, _ := e.rowCount("qos_rules"); n != rules {
		t.Fatalf("%d rows, want %d", n, rules)
	}
	t.Logf("%.1f B live per rule", perRule)
	if perRule > limit {
		t.Errorf("%.1f B live per rule, want at most %d", perRule, limit)
	}
}
