package minisql

import (
	"fmt"
	"math"
	"testing"
)

// readFeed pages through the change feed from cur the way a reader does,
// returning each key's latest entry and the last page's position, with Reset
// set when the read was a reset scan.
func readFeed(t *testing.T, e *Engine, cur Cursor) (map[string][]Value, Feed) {
	t.Helper()
	got, reset := map[string][]Value{}, false
	for page := 0; ; page++ {
		res := mustExec(t, e, `SELECT CHANGES FROM qos_rules SINCE ?, ?`, Int(int64(cur.Origin)), Int(cur.Seq))
		// Only the first page of a reset scan passes the cap, to reach the
		// horizon.
		if _, h := feedState(t, e, "qos_rules"); len(res.Rows) > FeedPage && (!res.Feed.Reset || res.Rows[len(res.Rows)-1][0].I > h) {
			t.Fatalf("page of %d entries, cap %d, horizon %d", len(res.Rows), FeedPage, h)
		}
		if res.Feed.Reset && page > 0 {
			t.Fatalf("page %d from %+v reset the scan", page, cur)
		}
		last := cur.Seq
		if res.Feed.Reset {
			last, reset = 0, true
		}
		for _, row := range res.Rows {
			if seq := row[0].AsInt(); seq <= last {
				t.Fatalf("entry %v at or before %d", row, last)
			}
			last = row[0].AsInt()
			got[row[2].AsText()] = row
		}
		if !res.Feed.More {
			if res.Feed.Next.Seq < last {
				t.Fatalf("last page ends at %d but says the head is %d", last, res.Feed.Next.Seq)
			}
			feed := *res.Feed
			feed.Reset = reset
			return got, feed
		}
		if _, h := feedState(t, e, "qos_rules"); len(res.Rows) < FeedPage || res.Feed.Next.Seq != max(last, h) {
			t.Fatalf("page of %d entries ending at %d says the next starts after %d", len(res.Rows), last, res.Feed.Next.Seq)
		}
		cur = res.Feed.Next
	}
}

// feedState returns table's head and its newest forgotten delete.
func feedState(t *testing.T, e *Engine, table string) (head, horizon int64) {
	t.Helper()
	td, err := e.getTable(table)
	if err != nil {
		t.Fatal(err)
	}
	td.mu.RLock()
	defer td.mu.RUnlock()
	return td.head, td.horizon
}

func TestChangeFeedPagesTombstonesAndOrigins(t *testing.T) {
	e := newTestEngine(t)
	const n = Tombstones + FeedPage + 7
	for i := 0; i < n; i++ {
		mustExec(t, e, `REPLACE INTO qos_rules VALUES (?, 1, 1, 1)`, Text(fmt.Sprintf("k%05d", i)))
	}
	got, feed := readFeed(t, e, Cursor{})
	if len(got) != n || feed.Next.Seq != n+1 || !feed.Reset {
		t.Fatalf("whole-table feed: %d keys, head %d, reset %v; want %d keys, head %d, a reset", len(got), feed.Next.Seq, feed.Reset, n, n+1)
	}

	// Writing the values a row already holds is not a change; writing a new
	// credit is.
	mustExec(t, e, `REPLACE INTO qos_rules VALUES ('k00000', 1, 1, 1)`)
	mustExec(t, e, `UPDATE qos_rules SET credit = 1 WHERE key = 'k00000'`)
	if next := mustExec(t, e, `SELECT CHANGES FROM qos_rules SINCE ?, ?`, Int(int64(feed.Next.Origin)), Int(feed.Next.Seq)).Feed.Next; next != feed.Next {
		t.Fatalf("rewriting unchanged values moved the head %+v -> %+v", feed.Next, next)
	}
	mustExec(t, e, `UPDATE qos_rules SET credit = 0.5 WHERE key = 'k00000'`)
	if got, feed = readFeed(t, e, feed.Next); len(got) != 1 || got["k00000"][5] != Float(0.5) || feed.Reset {
		t.Fatalf("credit change reads %v (reset %v)", got, feed.Reset)
	}

	// One more delete than the tombstones kept: the oldest is forgotten and
	// the horizon passes a cursor from before the deletes.
	before := feed.Next
	for i := 0; i <= Tombstones; i++ {
		mustExec(t, e, `DELETE FROM qos_rules WHERE key = ?`, Text(fmt.Sprintf("k%05d", i)))
	}
	if _, h := feedState(t, e, "qos_rules"); h != before.Seq+1 {
		t.Fatalf("horizon %d after %d deletes from %d, want %d", h, Tombstones+1, before.Seq, before.Seq+1)
	}
	got, feed = readFeed(t, e, before)
	live := 0
	for _, row := range got {
		if row[1] == Bool(false) {
			live++
		}
	}
	if !feed.Reset || live != n-Tombstones-1 {
		t.Fatalf("feed from below the horizon: reset %v, %d rows; want a reset scan of the %d left", feed.Reset, live, n-Tombstones-1)
	}
	from := Cursor{feed.Next.Origin, before.Seq + 1}
	got, _ = readFeed(t, e, from)
	if len(got) != Tombstones {
		t.Fatalf("feed from the horizon holds %d deletes, want %d", len(got), Tombstones)
	}
	for _, row := range got {
		if row[1] != Bool(true) || !row[3].IsNull() {
			t.Fatalf("tombstone %v: want _deleted = 1 and only the key", row)
		}
	}

	// A re-inserted key reads as a row, not as its old tombstone.
	mustExec(t, e, `INSERT INTO qos_rules VALUES ('k00001', 2, 2, 2)`)
	if got, _ = readFeed(t, e, from); got["k00001"][1] != Bool(false) {
		t.Fatalf("re-inserted key reads %v", got["k00001"])
	}

	// A restored copy keeps the snapshot's origin and sequence numbers, so a
	// cursor taken on the original reads on from the copy.
	other := NewEngine()
	if err := other.Restore(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got, want := readFeed(t, e, from)
	copied, copiedFeed := readFeed(t, other, from)
	if copiedFeed != want || fmt.Sprint(copied) != fmt.Sprint(got) {
		t.Fatalf("restored copy reads %+v %v, original %+v %v", copiedFeed, copied, want, got)
	}

	// A table without a primary key has no feed, so it is rejected when
	// created; and the cursor is two numbers.
	if _, err := e.Execute(`CREATE TABLE heap (v INT)`); err == nil {
		t.Fatal("table without a primary key created")
	}
	for _, sql := range []string{`SELECT CHANGES FROM qos_rules SINCE 'x', 0`, `SELECT CHANGES FROM qos_rules SINCE 1, NULL`,
		`SELECT CHANGES FROM qos_rules SINCE 0`, `SELECT CHANGES FROM qos_rules SINCE 0, 0, 0`} {
		if _, err := e.Execute(sql); err == nil {
			t.Fatalf("%s accepted", sql)
		}
	}
}

// TestContinuityRule: one rule decides whether a cursor reads on, and both
// readers apply it — a standby through since, a client through SELECT
// CHANGES. A cursor that cannot read on gets the whole table from 0.
func TestContinuityRule(t *testing.T) {
	master := newTestEngine(t)
	mustExec(t, master, `INSERT INTO qos_rules VALUES ('a', 1, 1, 1), ('b', 1, 1, 1), ('c', 1, 1, 1)`)
	old := master.Snapshot().At // head 4: the table took 1, the rows 2-4
	// A promoted standby that had applied up to old, then one write of its own.
	promoted := NewEngine()
	if err := promoted.Restore(master.Snapshot()); err != nil {
		t.Fatal(err)
	}
	promoted.promote()
	mustExec(t, promoted, `UPDATE qos_rules SET credit = 2 WHERE key = 'a'`)
	// An engine whose horizon is above old: one more delete than it keeps.
	forgetful := NewEngine()
	if err := forgetful.Restore(master.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= Tombstones; i++ {
		mustExec(t, forgetful, `INSERT INTO qos_rules VALUES (?, 1, 1, 1)`, Text(fmt.Sprint("d", i)))
		mustExec(t, forgetful, `DELETE FROM qos_rules WHERE key = ?`, Text(fmt.Sprint("d", i)))
	}
	_, forgetfulHorizon := feedState(t, forgetful, "qos_rules")
	for _, tc := range []struct {
		name      string
		e         *Engine
		cur       Cursor
		continues bool
	}{
		{"cursor zero", master, Cursor{}, false},
		{"origin zero", master, Cursor{0, old.Seq}, false},
		{"same origin", master, Cursor{old.Origin, 2}, true},
		{"same origin at the head", master, old, true},
		{"negative number", master, Cursor{old.Origin, -1}, false},
		{"unknown origin", master, Cursor{old.Origin + 1, old.Seq}, false},
		{"forked at the cursor", promoted, old, true},
		{"forked after the cursor", promoted, Cursor{old.Origin, 2}, true},
		{"forked before the cursor", promoted, Cursor{old.Origin, old.Seq + 1}, false},
		{"ahead of the head", master, Cursor{old.Origin, old.Seq + 1}, false},
		{"far ahead of the head", master, Cursor{old.Origin, math.MaxInt64}, false},
		{"below the horizon", forgetful, old, false},
		{"at the horizon", forgetful, Cursor{old.Origin, forgetfulHorizon}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, reset, _ := tc.e.since(tc.cur)
			if reset == tc.continues {
				t.Errorf("since: reset %v, want %v", reset, !tc.continues)
			}
			res := mustExec(t, tc.e, `SELECT CHANGES FROM qos_rules SINCE ?, ?`, Int(int64(tc.cur.Origin)), Int(tc.cur.Seq))
			if res.Feed.Reset == tc.continues {
				t.Errorf("SELECT CHANGES: reset %v, want %v", res.Feed.Reset, !tc.continues)
			}
			if res.Feed.Next.Origin != snap.At.Origin && len(snap.Tables) > 0 {
				t.Errorf("SELECT CHANGES leaves the reader on %x, since on %x", res.Feed.Next.Origin, snap.At.Origin)
			}
			from := tc.cur.Seq
			if !tc.continues {
				from = 0
			}
			for _, row := range res.Rows {
				if row[0].I <= from {
					t.Fatalf("entry %v at or before %d", row, from)
				}
			}
			if len(snap.Tables) > 0 && min(len(snap.Tables[0].Rows), FeedPage) != len(res.Rows) {
				t.Errorf("since cuts %d entries, SELECT CHANGES reads %d of them", len(snap.Tables[0].Rows), len(res.Rows))
			}
		})
	}

	// A standby at old reads on from the promoted engine: it applies the cut
	// after its cursor and takes the promoted engine's origin.
	standby := NewEngine()
	if err := standby.Restore(master.Snapshot()); err != nil {
		t.Fatal(err)
	}
	cut, reset, _ := promoted.since(old)
	if reset {
		t.Fatal("a cursor at the fork was reset")
	}
	if err := standby.apply(cut, false); err != nil {
		t.Fatalf("standby on the fork's origin refused the promoted engine's cut: %v", err)
	}
	if got, want := standby.Snapshot(), promoted.Snapshot(); got.At != want.At || fmt.Sprint(got.Tables) != fmt.Sprint(want.Tables) {
		t.Fatalf("standby at %+v holds %v; promoted engine at %+v holds %v", got.At, got.Tables, want.At, want.Tables)
	}
}
