package minisql

import "testing"

// TestPointSelectAllocPin: store.Get's statement through a warmed Client
// over loopback. AllocsPerRun counts the whole process, so the budget is
// both ends of the connection plus the engine: a miss is the caller's
// variadic argument slice, the server's decoded argument slice and key
// string, and the engine's projection and column-name list; a hit adds the
// engine's row list and the one array that holds the row's values, and the
// client's row list, row and key string. Neither end allocates for the
// frame itself, the SQL text or the column names.
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
		{Text("absent"), 0, 5},
		{Text("present"), 1, 10},
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
