package minisql

import "fmt"

// SnapshotData is a deep, self-contained copy of the full database state,
// used to seed a standby before statement-shipping replication begins.
type SnapshotData struct {
	Tables []TableSnapshot
}

// TableSnapshot captures one table.
type TableSnapshot struct {
	Name   string
	Schema []ColumnDef
	Rows   [][]Value
}

// Snapshot captures the current state of every table. Writes that land
// during the snapshot are serialized out by the write mutex, so the copy is
// a consistent point-in-time image with respect to journaled statements.
func (e *Engine) Snapshot() SnapshotData {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	var snap SnapshotData
	for _, name := range e.tableNamesLocked() {
		t := e.tables[name]
		t.mu.RLock()
		ts := TableSnapshot{
			Name:   t.name,
			Schema: append([]ColumnDef(nil), t.schema...),
			Rows:   make([][]Value, len(t.rows)),
		}
		for i, r := range t.rows {
			ts.Rows[i] = append([]Value(nil), r...)
		}
		t.mu.RUnlock()
		snap.Tables = append(snap.Tables, ts)
	}
	return snap
}

func (e *Engine) tableNamesLocked() []string {
	out := make([]string, 0, len(e.tables))
	for n := range e.tables {
		out = append(out, n)
	}
	return out
}

// Restore replaces the engine's entire contents with the snapshot. The
// engine takes a fresh origin and renumbers every restored row, so a
// change-feed cursor from before the restore reads as foreign.
func (e *Engine) Restore(snap SnapshotData) error {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	origin := e.origin
	e.origin = newOrigin()
	tables := make(map[string]*tableData, len(snap.Tables))
	for _, ts := range snap.Tables {
		t, err := newTable(ts.Name, ts.Schema)
		if err == nil {
			err = e.restoreRows(t, ts.Rows)
		}
		if err != nil {
			e.origin = origin
			return err
		}
		tables[t.name] = t
	}
	e.mu.Lock()
	e.tables = tables
	e.mu.Unlock()
	return nil
}

func (e *Engine) restoreRows(t *tableData, rows [][]Value) error {
	e.start(t)
	t.rows = make([][]Value, 0, len(rows))
	t.seqs = make([]int64, 0, len(rows))
	for _, r := range rows {
		if len(r) != len(t.schema) {
			return fmt.Errorf("minisql: snapshot row arity mismatch in %q", t.name)
		}
		ri := len(t.rows)
		t.rows = append(t.rows, append([]Value(nil), r...))
		t.seqs = append(t.seqs, 0)
		if t.pkCol >= 0 {
			pk := r[t.pkCol]
			if _, dup := t.pkIndex[pk]; dup {
				return fmt.Errorf("minisql: snapshot has duplicate primary key %s in %q", pk, t.name)
			}
			t.pkIndex[pk] = ri
		}
		e.seq++
		t.stamp(ri, e.seq)
	}
	return nil
}
