package minisql

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
)

// The change feed. Every write that changes a row's values, and every delete,
// takes the next number of the engine's sequence, so a reader that remembers
// the last number it saw can ask for what changed after it — SELECT CHANGES
// FROM t SINCE ? — instead of re-reading the table. A write that leaves every
// value as it was (an UPDATE or REPLACE of the same values) takes no number
// and is not reported. The reply holds each changed key once, at its latest
// state, in sequence order:
//
//	_seq  _deleted  <the table's columns>
//
// A live row carries its values; a deleted key carries _deleted = 1 and only
// its primary key. Alongside, Result.Feed reports the engine's origin (and
// fork, on a promoted standby), the table's head and horizon, and where the
// next page starts. A standby reads the same entries (replica.go).
//
// Deletes are remembered as tombstones, at most Tombstones per table; when one
// more is recorded the oldest is forgotten and the horizon moves up to it. A
// reader whose cursor is below the horizon may have missed deletes and must
// re-read the whole table (SINCE 0) to find them by absence.

const (
	// FeedPage caps the entries in one SELECT CHANGES reply; Feed.Next says
	// where the next page starts. A connection reuses its frame buffers
	// only up to 64 KiB (codec.go), so pages stay well under that; only a
	// whole-table read takes many.
	FeedPage = 256
	// Tombstones is how many deletes a table remembers.
	Tombstones = 4096
)

// Cursor is a place in a change sequence: number Seq of sequence Origin.
type Cursor struct {
	Origin uint64
	Seq    int64
}

// Feed is where a SELECT CHANGES reply stands in its table's sequence.
type Feed struct {
	// Origin names the sequence the engine numbers writes in. It is fresh
	// on NewEngine and on Promote, and a standby keeps its master's, so a
	// cursor taken from another sequence shows up as foreign instead of
	// being silently misread.
	Origin uint64
	// Fork is where a promoted standby's sequence leaves its master's: the
	// master's origin and the last number the standby applied. A cursor on
	// Fork.Origin at or below Fork.Seq reads on here. Zero elsewhere.
	Fork Cursor
	// Head is the latest sequence number written in the table.
	Head int64
	// Next is the cursor to read on from: the last _seq of this reply when
	// more entries follow it, Head otherwise.
	Next int64
	// Horizon is the newest forgotten delete: every delete after it is in
	// this reply or a later page. A cursor below Horizon may have missed
	// deletes.
	Horizon int64
}

// ChangesStmt is SELECT CHANGES FROM t SINCE expr.
type ChangesStmt struct {
	Table string
	Since Expr
}

func (ChangesStmt) stmt() {}

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
	ri, ok := t.pkIndex[c.pk]
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
func (e *Engine) changes(s ChangesStmt, args []Value) (Result, error) {
	t, err := e.getTable(s.Table)
	if err != nil {
		return Result{}, err
	}
	argi := 0
	v, err := bind(s.Since, args, &argi)
	if err != nil {
		return Result{}, err
	}
	cursor, err := coerce(v, KindInt)
	if err != nil || cursor.IsNull() {
		return Result{}, fmt.Errorf("minisql: SINCE needs an integer cursor, got %s", v)
	}
	feed := *e.lineage.Load()
	t.mu.RLock()
	defer t.mu.RUnlock()
	cols := make([]string, 0, 2+len(t.schema))
	cols = append(cols, "_seq", "_deleted")
	for _, c := range t.schema {
		cols = append(cols, c.Name)
	}
	rows := t.entries(cursor.I, FeedPage)
	feed.Head, feed.Next, feed.Horizon = t.head, t.head, t.horizon
	if len(rows) == FeedPage {
		feed.Next = rows[len(rows)-1][0].I
	}
	return Result{Columns: cols, Rows: rows, Feed: &feed}, nil
}

// entries returns the table's entries after cursor, each key at its latest
// state, in sequence order, at most limit of them (limit < 0: all). The scan
// starts at the cursor's place in the log, so it costs the writes since the
// cursor, not the size of the table. Caller holds the table lock or writeMu.
func (t *tableData) entries(cursor int64, limit int) [][]Value {
	var rows [][]Value
	for i := sort.Search(len(t.log), func(i int) bool { return t.log[i].seq > cursor }); i < len(t.log) && len(rows) != limit; i++ {
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
