package minisql

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
)

// The change feed. Every write that changes a row's values, and every delete,
// takes the next number of the engine's sequence, so a reader that remembers
// its Cursor can ask for what changed after it — SELECT CHANGES FROM t SINCE
// origin, seq (the origin as the INT of the same 64 bits) — instead of
// re-reading the table. A write that leaves every value as it was takes no
// number and is not reported. The reply holds each changed key once, at its
// latest state, in sequence order:
//
//	_seq  _deleted  <the table's columns>
//
// A live row carries its values; a deleted key carries _deleted = 1 and only
// its primary key. Alongside, Result.Feed says where the reader stands. A
// standby reads the same entries (replica.go).
//
// Deletes are remembered as tombstones, at most Tombstones per table; when one
// more is recorded the oldest is forgotten and the horizon moves up to it. A
// cursor that cannot read on (lineage.continues), such as one below the
// horizon, gets the whole table from sequence 0: a reset scan, in which the
// reader finds deletes by absence.

const (
	// FeedPage caps the entries in one SELECT CHANGES reply, but the first
	// page of a reset scan reaches the horizon, so that its cursor reads on.
	// A connection reuses its frame buffers only up to 64 KiB (codec.go), so
	// pages stay well under that; only a whole-table read takes many.
	FeedPage = 256
	// Tombstones is how many deletes a table remembers.
	Tombstones = 4096
)

// Cursor is a place in a change sequence: number Seq of sequence Origin.
type Cursor struct {
	Origin uint64
	Seq    int64
}

// Feed is where a SELECT CHANGES reply leaves its reader.
type Feed struct {
	Next  Cursor // where to read on from
	More  bool   // entries follow Next
	Reset bool   // the cursor could not read on: a reset scan starts here
}

// lineage is the sequence an engine numbers writes in: its origin is fresh on
// NewEngine and promote, and a standby takes its master's. On a promoted
// standby, fork is the master's origin and the last number it applied.
type lineage struct {
	origin uint64
	fork   Cursor
}

// continues is the one rule for whether a reader at cur may read on after it
// in a table, or a database, of this lineage at head whose newest forgotten
// delete is horizon: cur is on this origin, or on the one a promoted standby
// forked from at or after cur, and lies between horizon and head. The zero
// Cursor never does.
func (l *lineage) continues(cur Cursor, head, horizon int64) bool {
	onLine := cur.Origin == l.origin || cur.Origin == l.fork.Origin && cur.Seq <= l.fork.Seq
	return cur.Origin != 0 && onLine && horizon <= cur.Seq && cur.Seq <= head
}

// changesStmt is SELECT CHANGES FROM t SINCE origin, seq.
type changesStmt struct {
	table string
	since [2]expr
}

func (changesStmt) stmt() {}

// change is one entry of a table's change log: the sequence number of a write
// or delete and the primary key it touched. An entry stays in the log after a
// later write to the same key supersedes it, until compact drops it.
type change struct {
	seq int64
	pk  Value
}

// feed is a table's change-feed state, guarded by the table lock. Sequence
// numbers come from the engine and are assigned under its write lock.
type feed struct {
	seqs    []int64 // seqs[i] numbers the last write of rows[i]
	head    int64
	horizon int64
	log     []change        // in sequence order
	tombs   map[Value]int64 // deleted primary key -> the delete's number
	tombq   []change        // tombstones in delete order, for forgetting the oldest
}

func newOrigin() uint64 {
	for {
		if o := rand.Uint64(); o != 0 {
			return o
		}
	}
}

// stamp records that rows[ri] was just written as number seq.
func (t *tableData) stamp(ri int, seq int64) {
	t.seqs[ri], t.head = seq, seq
	pk := t.rows[ri][t.pkCol]
	delete(t.tombs, pk)
	t.log = append(t.log, change{seq, pk})
	t.compact()
}

// bury records that the row keyed pk was just deleted as number seq.
func (t *tableData) bury(pk Value, seq int64) {
	t.head = seq
	t.tombs[pk] = seq
	t.log = append(t.log, change{seq, pk})
	t.tombq = append(t.tombq, change{seq, pk})
	for len(t.tombs) > Tombstones {
		old := t.tombq[0]
		t.tombq = t.tombq[1:]
		if t.isTomb(old) {
			delete(t.tombs, old.pk)
			t.horizon = old.seq
		}
	}
	t.compact()
}

func (t *tableData) isTomb(c change) bool {
	s, ok := t.tombs[c.pk]
	return ok && s == c.seq
}

func (t *tableData) isRow(c change) (int, bool) {
	ri, ok := t.pkIndex.get(c.pk)
	return ri, ok && t.seqs[ri] == c.seq
}

// compact drops superseded entries once they outnumber the current ones, so
// the log and the tombstone queue stay within twice what they describe and a
// write costs O(1) amortized.
func (t *tableData) compact() {
	if len(t.log) > 2*(len(t.rows)+len(t.tombs))+64 {
		t.log = slices.DeleteFunc(t.log, func(c change) bool {
			_, row := t.isRow(c)
			return !row && !t.isTomb(c)
		})
	}
	if len(t.tombq) > 2*len(t.tombs)+64 {
		t.tombq = slices.DeleteFunc(t.tombq, func(c change) bool { return !t.isTomb(c) })
	}
}

// changes answers SELECT CHANGES: up to FeedPage entries after the cursor.
func (e *Engine) changes(s changesStmt, args *params) (Result, error) {
	t, err := e.getTable(s.table)
	if err != nil {
		return Result{}, err
	}
	var since [2]Value
	for i := range since {
		v, err := args.value(s.since[i])
		if err != nil {
			return Result{}, err
		}
		if since[i], err = coerce(v, KindInt); err != nil || since[i].isNull() {
			return Result{}, fmt.Errorf("minisql: SINCE needs an integer cursor, got %s", v)
		}
	}
	cur, lin := Cursor{uint64(since[0].I), since[1].I}, e.lineage.Load()
	t.mu.RLock()
	defer t.mu.RUnlock()
	feed := Feed{Next: Cursor{lin.origin, t.head}}
	if !lin.continues(cur, t.head, t.horizon) {
		cur.Seq, feed.Reset = 0, true
	}
	rows := t.entries(cur.Seq, t.horizon, FeedPage)
	if n := len(rows); n >= FeedPage && rows[n-1][0].I < t.head {
		feed.Next.Seq, feed.More = max(rows[n-1][0].I, t.horizon), true
	}
	return Result{Rows: rows, Feed: &feed}, nil
}

// entries returns the table's entries after cursor, each key at its latest
// state, in sequence order: all of them up to through, and past it no more
// than limit in all. The scan starts at the cursor's place in the log, so it
// costs the writes since the cursor, not the size of the table. Caller holds
// the table lock or writeMu.
func (t *tableData) entries(cursor, through int64, limit int) [][]Value {
	var rows [][]Value
	for i := sort.Search(len(t.log), func(i int) bool { return t.log[i].seq > cursor }); i < len(t.log) && (len(rows) < limit || t.log[i].seq <= through); i++ {
		c := t.log[i]
		row := make([]Value, 2+len(t.schema)) // zero Values are NULL
		row[0] = Int(c.seq)
		if ri, ok := t.isRow(c); ok {
			row[1] = Bool(false)
			copy(row[2:], t.rows[ri])
		} else if t.isTomb(c) {
			row[1] = Bool(true)
			row[2+t.pkCol] = c.pk
		} else {
			continue
		}
		rows = append(rows, row)
	}
	return rows
}
