package minisql

import (
	"fmt"
	"testing"
)

// readFeed pages through the change feed from cursor the way a reader does,
// returning each key's latest entry and the last page's position.
func readFeed(t *testing.T, e *Engine, cursor int64) (map[string][]Value, Feed) {
	t.Helper()
	got := map[string][]Value{}
	for {
		res := mustExec(t, e, `SELECT CHANGES FROM qos_rules SINCE ?`, Int(cursor))
		if len(res.Rows) > FeedPage {
			t.Fatalf("page of %d entries, cap %d", len(res.Rows), FeedPage)
		}
		last := cursor
		for _, row := range res.Rows {
			if seq := row[0].AsInt(); seq <= last {
				t.Fatalf("entry %v at or before %d", row, last)
			}
			last = row[0].AsInt()
			got[row[2].AsText()] = row
		}
		if res.Feed.Next >= res.Feed.Head {
			return got, *res.Feed
		}
		if len(res.Rows) != FeedPage || res.Feed.Next != last {
			t.Fatalf("page of %d entries ending at %d says the next starts after %d", len(res.Rows), last, res.Feed.Next)
		}
		cursor = res.Feed.Next
	}
}

func TestChangeFeedPagesTombstonesAndOrigins(t *testing.T) {
	e := newTestEngine(t)
	const n = Tombstones + FeedPage + 7
	for i := 0; i < n; i++ {
		mustExec(t, e, `REPLACE INTO qos_rules VALUES (?, 1, 1, 1)`, Text(fmt.Sprintf("k%05d", i)))
	}
	got, feed := readFeed(t, e, 0)
	if len(got) != n || feed.Head != n+1 {
		t.Fatalf("whole-table feed: %d keys, head %d; want %d keys, head %d", len(got), feed.Head, n, n+1)
	}

	// Writing the values a row already holds is not a change; writing a new
	// credit is.
	mustExec(t, e, `REPLACE INTO qos_rules VALUES ('k00000', 1, 1, 1)`)
	mustExec(t, e, `UPDATE qos_rules SET credit = 1 WHERE key = 'k00000'`)
	if head := mustExec(t, e, `SELECT CHANGES FROM qos_rules SINCE 0`).Feed.Head; head != feed.Head {
		t.Fatalf("rewriting unchanged values moved the head %d -> %d", feed.Head, head)
	}
	mustExec(t, e, `UPDATE qos_rules SET credit = 0.5 WHERE key = 'k00000'`)
	if got, feed = readFeed(t, e, feed.Head); len(got) != 1 || got["k00000"][5] != Float(0.5) {
		t.Fatalf("credit change reads %v", got)
	}

	// One more delete than the tombstones kept: the oldest is forgotten and
	// the horizon passes a cursor from before the deletes.
	before := feed.Head
	for i := 0; i <= Tombstones; i++ {
		mustExec(t, e, `DELETE FROM qos_rules WHERE key = ?`, Text(fmt.Sprintf("k%05d", i)))
	}
	if _, feed = readFeed(t, e, before); feed.Horizon != before+1 {
		t.Fatalf("horizon %d after %d deletes from %d, want %d", feed.Horizon, Tombstones+1, before, before+1)
	}
	// A standby at that cursor, or on another origin, gets a snapshot.
	whole := len(e.Snapshot().Tables[0].Rows)
	for _, cur := range []Cursor{{feed.Origin, before}, {feed.Origin + 1, feed.Head}} {
		if snap, reset, _ := e.since(cur); !reset || len(snap.Tables[0].Rows) != whole {
			t.Fatalf("cut for %+v: reset %v, %d entries; want all %d", cur, reset, len(snap.Tables[0].Rows), whole)
		}
	}
	got, _ = readFeed(t, e, feed.Horizon)
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
	if got, _ = readFeed(t, e, feed.Horizon); got["k00001"][1] != Bool(false) {
		t.Fatalf("re-inserted key reads %v", got["k00001"])
	}

	// A restored copy keeps the snapshot's origin and sequence numbers, so a
	// cursor taken on the original reads on from the copy.
	other := NewEngine()
	if err := other.Restore(e.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got, want := readFeed(t, e, feed.Horizon)
	copied, copiedFeed := readFeed(t, other, feed.Horizon)
	if copiedFeed != want || fmt.Sprint(copied) != fmt.Sprint(got) {
		t.Fatalf("restored copy reads %+v %v, original %+v %v", copiedFeed, copied, want, got)
	}

	// A table without a primary key has no feed, so it is rejected when
	// created; and the cursor is a number.
	if _, err := e.Execute(`CREATE TABLE heap (v INT)`); err == nil {
		t.Fatal("table without a primary key created")
	}
	if _, err := e.Execute(`SELECT CHANGES FROM qos_rules SINCE 'x'`); err == nil {
		t.Fatal("non-numeric cursor accepted")
	}
}
