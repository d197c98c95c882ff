package minisql

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// waitFor polls cond until it holds or a generous deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never satisfied")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Model-based test: a long random stream of INSERT/REPLACE/UPDATE/DELETE/
// SELECT against the engine must agree with a plain Go map model at every
// step. This is the strongest single check on the storage engine + PK
// index interplay (swap-deletes, upserts, coerced keys). The model also
// numbers every write and delete, and the change feed from a random earlier
// cursor must hold exactly each key's latest write or delete after it.

type modelRow struct {
	rate, capacity, credit float64
}

// modelChange is a key's latest write (or delete) and its sequence number.
type modelChange struct {
	seq  int64
	row  modelRow
	gone bool
}

func TestEngineAgreesWithMapModel(t *testing.T) {
	e := NewEngine()
	if _, err := e.Execute(`CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`); err != nil {
		t.Fatal(err)
	}
	model := map[string]modelRow{}
	changes := map[string]modelChange{}
	seq := int64(1) // CREATE TABLE took number 1
	origin := e.Snapshot().At.Origin
	// write applies one write (live) or delete to the model. Like the engine,
	// it numbers only a write that changes something.
	write := func(k string, r modelRow, live bool) {
		if old, had := model[k]; live == had && (!live || old == r) {
			return
		}
		seq++
		if live {
			model[k] = r
		} else {
			delete(model, k)
		}
		changes[k] = modelChange{seq, r, !live}
	}
	rng := rand.New(rand.NewSource(2024))
	keyOf := func() string { return fmt.Sprintf("k%d", rng.Intn(200)) }

	for step := 0; step < 20000; step++ {
		k := keyOf()
		switch rng.Intn(7) {
		case 0: // INSERT (may conflict)
			r := modelRow{float64(rng.Intn(100)), float64(rng.Intn(1000)), float64(rng.Intn(1000))}
			_, err := e.Execute(`INSERT INTO qos_rules VALUES (?, ?, ?, ?)`,
				Text(k), Float(r.rate), Float(r.capacity), Float(r.credit))
			_, exists := model[k]
			if exists && err == nil {
				t.Fatalf("step %d: duplicate insert of %s succeeded", step, k)
			}
			if !exists {
				if err != nil {
					t.Fatalf("step %d: insert %s failed: %v", step, k, err)
				}
				write(k, r, true)
			}
		case 1: // REPLACE (upsert), a quarter of them with the values already there
			r := modelRow{float64(rng.Intn(100)), float64(rng.Intn(1000)), float64(rng.Intn(1000))}
			if old, ok := model[k]; ok && rng.Intn(4) == 0 {
				r = old
			}
			if _, err := e.Execute(`REPLACE INTO qos_rules VALUES (?, ?, ?, ?)`,
				Text(k), Float(r.rate), Float(r.capacity), Float(r.credit)); err != nil {
				t.Fatalf("step %d: replace: %v", step, err)
			}
			write(k, r, true)
		case 2: // UPDATE credit, a quarter of them to the credit already there
			c := float64(rng.Intn(1000))
			if old, ok := model[k]; ok && rng.Intn(4) == 0 {
				c = old.credit
			}
			res, err := e.Execute(`UPDATE qos_rules SET credit = ? WHERE key = ?`, Float(c), Text(k))
			if err != nil {
				t.Fatalf("step %d: update: %v", step, err)
			}
			if r, ok := model[k]; ok {
				if res.Affected != 1 {
					t.Fatalf("step %d: update affected %d, want 1", step, res.Affected)
				}
				r.credit = c
				write(k, r, true)
			} else if res.Affected != 0 {
				t.Fatalf("step %d: update of ghost affected %d", step, res.Affected)
			}
		case 3: // DELETE
			res, err := e.Execute(`DELETE FROM qos_rules WHERE key = ?`, Text(k))
			if err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			_, exists := model[k]
			if (res.Affected == 1) != exists {
				t.Fatalf("step %d: delete affected %d, exists %v", step, res.Affected, exists)
			}
			write(k, modelRow{}, false)
		case 4: // SELECT point
			res, err := e.Execute(`SELECT refill_rate, capacity, credit FROM qos_rules WHERE key = ?`, Text(k))
			if err != nil {
				t.Fatalf("step %d: select: %v", step, err)
			}
			r, exists := model[k]
			if exists != (len(res.Rows) == 1) {
				t.Fatalf("step %d: select rows %d, exists %v", step, len(res.Rows), exists)
			}
			if exists {
				row := res.Rows[0]
				if row[0].AsFloat() != r.rate || row[1].AsFloat() != r.capacity || row[2].AsFloat() != r.credit {
					t.Fatalf("step %d: row %v != model %v", step, row, r)
				}
			}
		case 5: // COUNT
			res, err := e.Execute(`SELECT COUNT(*) FROM qos_rules`)
			if err != nil {
				t.Fatalf("step %d: count: %v", step, err)
			}
			if got := res.Rows[0][0].AsInt(); got != int64(len(model)) {
				t.Fatalf("step %d: count %d != model %d", step, got, len(model))
			}
		case 6: // change feed
			since := rng.Int63n(seq + 1)
			res, err := e.Execute(`SELECT CHANGES FROM qos_rules SINCE ?, ?`, Int(int64(origin)), Int(since))
			if err != nil {
				t.Fatalf("step %d: changes: %v", step, err)
			}
			if res.Feed.Next != (Cursor{origin, seq}) || res.Feed.More { // 200 keys fit one page
				t.Fatalf("step %d: feed ends at %+v (more %v); model %d", step, res.Feed.Next, res.Feed.More, seq)
			}
			if res.Feed.Reset {
				continue // truncated: the reader re-reads the table instead
			}
			want := 0
			for _, c := range changes {
				if c.seq > since {
					want++
				}
			}
			if len(res.Rows) != want {
				t.Fatalf("step %d: feed since %d has %d entries, model %d", step, since, len(res.Rows), want)
			}
			last := since
			for _, row := range res.Rows {
				c, ok := changes[row[2].AsText()]
				if got := row[0].AsInt(); !ok || got != c.seq || got <= last {
					t.Fatalf("step %d: feed entry %v out of order or not the latest (model %+v, previous %d)", step, row, c, last)
				}
				last = c.seq
				if gone := row[1].AsInt() == 1; gone != c.gone {
					t.Fatalf("step %d: feed entry %v deleted=%v, model %v", step, row, gone, c.gone)
				}
				if !c.gone && (row[3].AsFloat() != c.row.rate || row[4].AsFloat() != c.row.capacity || row[5].AsFloat() != c.row.credit) {
					t.Fatalf("step %d: feed row %v != model %v", step, row, c.row)
				}
			}
		}
	}

	// Final full-table cross-check.
	res, err := e.Execute(`SELECT key, refill_rate, capacity, credit FROM qos_rules`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(model) {
		t.Fatalf("final rows %d != model %d", len(res.Rows), len(model))
	}
	for _, row := range res.Rows {
		r, ok := model[row[0].AsText()]
		if !ok {
			t.Fatalf("engine has ghost row %v", row)
		}
		if row[1].AsFloat() != r.rate || row[2].AsFloat() != r.capacity || row[3].AsFloat() != r.credit {
			t.Fatalf("final row %v != model %v", row, r)
		}
	}
}

// The same random stream applied to a master must converge on a following
// standby (replication end-to-end model check).
func TestReplicationAgreesWithModel(t *testing.T) {
	master := NewEngine()
	if _, err := master.Execute(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(master, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	standby := NewEngine()
	rep := NewReplica(standby)
	if err := rep.Follow(srv.Addr()); err != nil {
		t.Fatal(err)
	}
	defer rep.Stop()

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 3000; step++ {
		id := Int(int64(rng.Intn(100)))
		switch rng.Intn(3) {
		case 0:
			master.Execute(`REPLACE INTO t VALUES (?, ?)`, id, Int(int64(step)))
		case 1:
			master.Execute(`UPDATE t SET v = ? WHERE id = ?`, Int(int64(step)), id)
		case 2:
			master.Execute(`DELETE FROM t WHERE id = ?`, id)
		}
	}
	// The feed coalesces superseded writes, so the standby is done when it
	// reaches the master's head, not after a count of statements.
	waitApplied(t, rep, master, "t")
	sameRows(t, master, standby, "t")
}
