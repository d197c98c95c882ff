package minisql

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzParse: the SQL parser must never panic and must either return a
// statement or an error, never both nil.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM qos_rules WHERE key = ?",
		"CREATE TABLE t (a INT PRIMARY KEY, b TEXT)",
		"INSERT INTO t VALUES (1, 'x''y'), (?, NULL)",
		"REPLACE INTO qos_rules VALUES (?, ?, ?, ?)",
		"UPDATE t SET a = 1, b = 'z' WHERE a >= -3 AND b <> 'q'",
		"DELETE FROM t WHERE a <= 3.5e2",
		"SELECT COUNT(*) FROM `weird table` ORDER BY a DESC LIMIT 10;",
		"select key from qos_rules",
		"'unterminated",
		"SELECT * FROM t WHERE a = $1",
		"SELECT CHANGES FROM qos_rules SINCE ?, ?",
		"select changes from t since 0, 0;",
		"SELECT CHANGES FROM t SINCE 1,",
		"SELECT CHANGES FROM t SINCE 0, -3",
		"SELECT CHANGES FROM t SINCE -1, 9223372036854775807",
	} {
		f.Add(seed)
	}
	for _, seed := range removedForms {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := parse(sql)
		if err == nil && st == nil {
			t.Fatal("nil statement with nil error")
		}
	})
}

// FuzzExecute: executing arbitrary SQL against a live engine must never
// panic or corrupt the PK index (checked via a follow-up point query), a
// statement that fails must leave the sequence and the row count as they
// were (statements are atomic), and the change feed from cursor 0 must still
// list every row once, in sequence order.
func FuzzExecute(f *testing.F) {
	f.Add("INSERT INTO qos_rules VALUES ('a', 1, 2, 3)")
	f.Add("SELECT * FROM qos_rules")
	f.Add("DELETE FROM qos_rules WHERE key = 'a'")
	f.Add("CREATE TABLE heap (v INT)")
	f.Add("SELECT CHANGES FROM qos_rules SINCE 0, 1")
	f.Add("SELECT CHANGES FROM qos_rules SINCE 7, -2")
	f.Add("SELECT CHANGES FROM qos_rules SINCE 12345, 2")
	f.Add("REPLACE INTO qos_rules VALUES ('a', 1, 2, 3), ('seed', 'x', 1, 1)")
	f.Add("UPDATE qos_rules SET key = 'b' WHERE key = 'seed'")
	for _, seed := range removedForms {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		e := NewEngine()
		if _, err := e.Execute(`CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Execute(`INSERT INTO qos_rules VALUES ('seed', 1, 2, 3)`); err != nil {
			t.Fatal(err)
		}
		count := func() int64 { return mustExec(t, e, `SELECT COUNT(*) FROM qos_rules`).Rows[0][0].AsInt() }
		head, rows := e.Snapshot().At.Seq, count()
		if _, err := e.Execute(sql); err != nil { // must not panic
			if now := e.Snapshot().At.Seq; now != head {
				t.Fatalf("failed statement (%v) moved the sequence %d -> %d", err, head, now)
			}
			if now := count(); now != rows {
				t.Fatalf("failed statement (%v) changed COUNT(*) %d -> %d", err, rows, now)
			}
		}
		// Index integrity: the seed row is either present with consistent
		// values or deleted.
		res, err := e.Execute(`SELECT refill_rate FROM qos_rules WHERE key = 'seed'`)
		if err != nil {
			t.Fatalf("point select: %v", err)
		}
		if len(res.Rows) > 1 {
			t.Fatalf("PK index corrupted: %d rows for one key", len(res.Rows))
		}
		feed, err := e.Execute(`SELECT CHANGES FROM qos_rules SINCE 0, 0`)
		if err != nil {
			t.Fatalf("change feed: %v", err)
		}
		live, last := int64(0), int64(0)
		for _, row := range feed.Rows {
			if seq := row[0].AsInt(); seq <= last || seq > feed.Feed.Next.Seq {
				t.Fatalf("feed entry %v out of order (previous %d, head %d)", row, last, feed.Feed.Next.Seq)
			}
			last = row[0].AsInt()
			if row[1].AsInt() == 0 {
				live++
			}
		}
		if feed.Feed.More || !feed.Feed.Reset {
			t.Fatalf("one page of %d entries from the zero cursor reads as %+v, want the whole reset scan", len(feed.Rows), *feed.Feed)
		}
		if n := count(); live != n {
			t.Fatalf("feed lists %d rows, table holds %d", live, n)
		}
	})
}

// FuzzFrameDecode: arbitrary bytes off a connection never panic the frame
// reader, never make it allocate more than a small multiple of the bytes
// that arrived — whatever the length prefix claims — and a frame that
// decodes re-encodes to exactly the bytes it was read from.
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range sampleFrames() {
		f.Add(appendFrame(nil, &fr))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var fr frame
		err := newFrameReader(bytes.NewReader(data)).next(&fr)
		runtime.ReadMemStats(&after)
		// A decoded Value is 40 bytes per kind byte, a row header 24 per
		// count byte; the constant covers the reader's own buffers.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+16<<10 {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		n := 4 + int(binary.BigEndian.Uint32(data))
		if got := appendFrame(nil, &fr); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encoded %x, read %x", got, data[:n])
		}
	})
}
