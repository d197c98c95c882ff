package minisql

import (
	"fmt"
	"slices"
)

// SnapshotData is a consistent cut of the database: every table's change-feed
// entries after a cursor, taken between two writes. From cursor 0 it is the
// whole database, which Restore turns back into the same tables at the same
// sequence numbers; after a standby's cursor it is what the standby has not
// applied yet (server.go).
type SnapshotData struct {
	// At is the cut: the engine's origin and its sequence number when the
	// cut was taken. A reader that applies the cut is at At.
	At     Cursor
	Tables []TableSnapshot
}

// TableSnapshot is one table in a cut: its schema, where its feed stands, and
// its entries after the cursor in SELECT CHANGES form (_seq, _deleted, then
// the columns; a delete carries only the key).
type TableSnapshot struct {
	Name          string
	Schema        []ColumnDef
	Head, Horizon int64
	Rows          [][]Value
}

// Snapshot captures every table whole.
func (e *Engine) Snapshot() SnapshotData {
	snap, _, _ := e.since(Cursor{})
	return snap
}

// since returns what a reader at cur lacks, as one cut: every table written
// after cur.Seq with its entries after it, or, when cur cannot read on
// (lineage.continues), every table whole (reset true). When nothing was
// written after cur it returns instead a channel that the next write closes.
// writeMu keeps every writer out, so the tables need no other lock.
func (e *Engine) since(cur Cursor) (snap SnapshotData, reset bool, wait <-chan struct{}) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	lin := e.lineage.Load()
	snap.At = Cursor{lin.origin, e.seq}
	if cur == snap.At {
		if e.wake == nil {
			e.wake = make(chan struct{})
		}
		return SnapshotData{}, false, e.wake
	}
	var horizon int64
	for _, t := range e.tables {
		horizon = max(horizon, t.horizon)
	}
	if !lin.continues(cur, e.seq, horizon) {
		cur.Seq, reset = 0, true
	}
	for _, t := range e.tables {
		if t.head > cur.Seq {
			snap.Tables = append(snap.Tables, TableSnapshot{Name: t.name, Schema: slices.Clone(t.schema),
				Head: t.head, Horizon: t.horizon, Rows: t.entries(cur.Seq, t.head, 0)})
		}
	}
	return snap, reset, nil
}

// apply writes a cut into the engine, as a standby does with each one its
// master streams: tables it does not have yet are created, and every entry
// lands at the master's sequence number. A reset cut replaces every table
// and the lineage; any other must start where the engine stands, and brings
// it onto the cut's origin (a master promoted from it). A cut that fails
// part-way leaves the engine between the two, and the standby then asks for
// a snapshot.
func (e *Engine) apply(snap SnapshotData, reset bool) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	tables := e.tables
	if reset {
		tables = make(map[string]*tableData, len(snap.Tables))
	} else if snap.At.Seq < e.seq {
		return fmt.Errorf("minisql: cut at %+v is behind %d", snap.At, e.seq)
	}
	for _, ts := range snap.Tables {
		t := tables[ts.Name]
		if t == nil {
			var err error
			if t, err = newTable(ts.Name, ts.Schema); err != nil {
				return err
			}
			e.mu.Lock()
			tables[t.name] = t
			e.mu.Unlock()
		}
		t.mu.Lock()
		err := t.apply(ts, snap.At.Seq)
		t.mu.Unlock()
		if err != nil {
			return err
		}
	}
	e.mu.Lock()
	e.tables = tables
	e.mu.Unlock()
	if reset || snap.At.Origin != e.lineage.Load().origin {
		e.lineage.Store(&lineage{origin: snap.At.Origin})
	}
	e.seq = snap.At.Seq
	e.notify()
	return nil
}

// apply writes a cut's entries for this table, each as the row state it
// names — the row's values, or its deletion — at its sequence number.
func (t *tableData) apply(ts TableSnapshot, at int64) error {
	for _, row := range ts.Rows {
		if len(row) != 2+len(t.schema) || row[0].Kind != KindInt || row[0].I <= t.head || row[0].I > at || row[2+t.pkCol].isNull() {
			return fmt.Errorf("minisql: malformed entry %v for %q at head %d", row, t.name, t.head)
		}
		seq, pk := row[0].I, row[2+t.pkCol]
		ri, live := t.pkIndex[pk]
		switch {
		case row[1].AsInt() != 0:
			if live {
				t.remove(ri)
			}
			t.bury(pk, seq)
			continue
		case live:
			t.rows[ri] = slices.Clone(row[2:])
		default:
			ri = t.add(slices.Clone(row[2:]))
		}
		t.stamp(ri, seq)
	}
	t.head, t.horizon = max(t.head, ts.Head), max(t.horizon, ts.Horizon)
	return nil
}

// promote makes a standby's sequence its own: later writes are numbered
// under a fresh origin, and the feed reports where that sequence forks from
// the master's (lineage.fork).
func (e *Engine) promote() {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.lineage.Store(&lineage{origin: newOrigin(), fork: Cursor{e.lineage.Load().origin, e.seq}})
}
