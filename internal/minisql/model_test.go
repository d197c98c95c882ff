package minisql

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
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
// cursor must hold exactly each key's latest write or delete after it. The
// stream runs in process and through a loopback Client, where the server
// reads each TEXT argument from the frame's bytes; the keys include '' and
// keys with NUL bytes, and INT- and FLOAT-keyed tables take keys in every
// form that names a row, and some that name none.

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
	for _, path := range []string{"engine", "loopback"} {
		t.Run(path, func(t *testing.T) {
			e := NewEngine()
			exec := e.Execute
			if path == "loopback" {
				srv, err := NewServer(e, "127.0.0.1:0", nil)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				c, err := Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				exec = c.Execute
			}
			t.Run("text", func(t *testing.T) { checkTextModel(t, e, exec) })
			t.Run("int", func(t *testing.T) { checkTypedModel(t, exec, KindInt) })
			t.Run("float", func(t *testing.T) { checkTypedModel(t, exec, KindFloat) })
		})
	}
}

// execFunc runs one statement, in process or through a Client.
type execFunc func(sql string, args ...Value) (Result, error)

func checkTextModel(t *testing.T, e *Engine, exec execFunc) {
	if _, err := exec(`CREATE TABLE qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`); err != nil {
		t.Fatal(err)
	}
	model := map[string]modelRow{}
	changes := map[string]modelChange{}
	seq := e.Snapshot().At.Seq // CREATE TABLE took the last number
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
	odd := []string{"", "\x00", "k\x00", "k1\x00", "\x00k1"}
	keyOf := func() string {
		n := rng.Intn(200)
		if n < len(odd) {
			return odd[n]
		}
		return fmt.Sprintf("k%d", n)
	}

	for step := 0; step < 20000; step++ {
		k := keyOf()
		switch rng.Intn(7) {
		case 0: // INSERT (may conflict)
			r := modelRow{float64(rng.Intn(100)), float64(rng.Intn(1000)), float64(rng.Intn(1000))}
			_, err := exec(`INSERT INTO qos_rules VALUES (?, ?, ?, ?)`,
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
			if _, err := exec(`REPLACE INTO qos_rules VALUES (?, ?, ?, ?)`,
				Text(k), Float(r.rate), Float(r.capacity), Float(r.credit)); err != nil {
				t.Fatalf("step %d: replace: %v", step, err)
			}
			write(k, r, true)
		case 2: // UPDATE credit, a quarter of them to the credit already there
			c := float64(rng.Intn(1000))
			if old, ok := model[k]; ok && rng.Intn(4) == 0 {
				c = old.credit
			}
			res, err := exec(`UPDATE qos_rules SET credit = ? WHERE key = ?`, Float(c), Text(k))
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
			res, err := exec(`DELETE FROM qos_rules WHERE key = ?`, Text(k))
			if err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			_, exists := model[k]
			if (res.Affected == 1) != exists {
				t.Fatalf("step %d: delete affected %d, exists %v", step, res.Affected, exists)
			}
			write(k, modelRow{}, false)
		case 4: // SELECT point
			res, err := exec(`SELECT refill_rate, capacity, credit FROM qos_rules WHERE key = ?`, Text(k))
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
			res, err := exec(`SELECT COUNT(*) FROM qos_rules`)
			if err != nil {
				t.Fatalf("step %d: count: %v", step, err)
			}
			if got := res.Rows[0][0].AsInt(); got != int64(len(model)) {
				t.Fatalf("step %d: count %d != model %d", step, got, len(model))
			}
		case 6: // change feed
			since := rng.Int63n(seq + 1)
			res, err := exec(`SELECT CHANGES FROM qos_rules SINCE ?, ?`, Int(int64(origin)), Int(since))
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
	res, err := exec(`SELECT key, refill_rate, capacity, credit FROM qos_rules`)
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

// typedKey is a key argument for an INT- or FLOAT-keyed table and what it
// names: the model's key, none (a value that cannot take the key's type, or
// NULL), or NaN, which names no row and yet is a key a row can be stored
// under.
type typedKey struct {
	arg  Value
	key  float64
	none bool
	nan  bool
}

// typedKeyOf draws a key for a table keyed by kind, in one of the forms that
// name the same row: 5, '5' and 5.0 name INT key 5; -0.0, '-0' and 0 name
// FLOAT key +0.
func typedKeyOf(rng *rand.Rand, kind Kind) typedKey {
	n := rng.Intn(20)
	f := float64(n)
	if kind == KindFloat && n%2 == 1 {
		f = float64(n) / 4 // a fraction
	}
	k := typedKey{key: f}
	switch rng.Intn(8) {
	case 0:
		k.arg = Text(strconv.FormatFloat(f, 'g', -1, 64))
		if kind == KindFloat && f == 0 {
			k.arg = Text("-0")
		}
	case 1:
		k.arg = Int(int64(f))
		k.key = math.Trunc(f)
	case 2:
		k.arg = Float(f)
		if kind == KindInt {
			k.key = math.Trunc(f)
		}
		if f == 0 {
			k.arg = Float(math.Copysign(0, -1))
		}
	case 3:
		k = typedKey{arg: [...]Value{Text(""), Text("x"), Text("1\x00"), null()}[rng.Intn(4)], none: true}
		if kind == KindInt && rng.Intn(2) == 0 {
			k.arg = Text("2.5") // a FLOAT key, but no INT
		}
	case 4:
		if kind == KindFloat {
			k = typedKey{arg: [...]Value{Float(math.NaN()), Text("NaN")}[rng.Intn(2)], nan: true}
			break
		}
		fallthrough
	default:
		if kind == KindInt {
			k.arg, k.key = Int(int64(n)), float64(n)
		} else {
			k.arg = Float(f)
		}
	}
	return k
}

// checkTypedModel runs a random stream against a table keyed by kind, INT
// or FLOAT, and a map model of it.
func checkTypedModel(t *testing.T, exec execFunc, kind Kind) {
	table := strings.ToLower(kind.String()) + "s"
	if _, err := exec(fmt.Sprintf(`CREATE TABLE %s (id %s PRIMARY KEY, v INT)`, table, kind)); err != nil {
		t.Fatal(err)
	}
	model := map[float64]int64{}
	nans := 0 // rows stored under NaN, which no key names
	rng := rand.New(rand.NewSource(int64(kind)))
	for step := 0; step < 5000; step++ {
		k, v := typedKeyOf(rng, kind), int64(step)
		switch rng.Intn(6) {
		case 0, 1: // INSERT (may conflict), REPLACE
			verb := [...]string{"INSERT", "REPLACE"}[rng.Intn(2)]
			_, err := exec(verb+` INTO `+table+` VALUES (?, ?)`, k.arg, Int(v))
			_, dup := model[k.key]
			switch {
			case k.none:
				if err == nil {
					t.Fatalf("step %d: %s of key %v succeeded", step, verb, k.arg)
				}
			case dup && verb == "INSERT" && !k.nan:
				if err == nil {
					t.Fatalf("step %d: duplicate insert of %v succeeded", step, k.arg)
				}
			case err != nil:
				t.Fatalf("step %d: %s of %v: %v", step, verb, k.arg, err)
			case k.nan:
				nans++
			default:
				model[k.key] = v
			}
		case 2: // UPDATE
			res, err := exec(`UPDATE `+table+` SET v = ? WHERE id = ?`, Int(v), k.arg)
			_, exists := model[k.key]
			exists = exists && !k.none && !k.nan
			if err != nil || res.Affected != map[bool]int64{true: 1}[exists] {
				t.Fatalf("step %d: update of %v: %+v, %v; model has it: %v", step, k.arg, res, err, exists)
			}
			if exists {
				model[k.key] = v
			}
		case 3: // DELETE
			res, err := exec(`DELETE FROM `+table+` WHERE id = ?`, k.arg)
			_, exists := model[k.key]
			exists = exists && !k.none && !k.nan
			if err != nil || res.Affected != map[bool]int64{true: 1}[exists] {
				t.Fatalf("step %d: delete of %v: %+v, %v; model has it: %v", step, k.arg, res, err, exists)
			}
			if exists {
				delete(model, k.key)
			}
		case 4: // SELECT point
			res, err := exec(`SELECT v FROM `+table+` WHERE id = ?`, k.arg)
			want, exists := model[k.key]
			exists = exists && !k.none && !k.nan
			if err != nil || len(res.Rows) != map[bool]int{true: 1}[exists] || exists && res.Rows[0][0] != Int(want) {
				t.Fatalf("step %d: select of %v: %+v, %v; model %v, %v", step, k.arg, res, err, want, exists)
			}
		case 5: // COUNT
			res, err := exec(`SELECT COUNT(*) FROM ` + table)
			if err != nil || res.Rows[0][0] != Int(int64(len(model)+nans)) {
				t.Fatalf("step %d: count %+v, %v; model %d and %d NaN", step, res, err, len(model), nans)
			}
		}
	}
	res, err := exec(`SELECT id, v FROM ` + table)
	if err != nil {
		t.Fatal(err)
	}
	gotNaN := 0
	for _, row := range res.Rows {
		id := row[0].AsFloat()
		if math.IsNaN(id) {
			gotNaN++
		} else if want, ok := model[id]; !ok || row[1] != Int(want) {
			t.Fatalf("final row %v, model %v, %v", row, want, ok)
		}
	}
	if len(res.Rows) != len(model)+nans || gotNaN != nans {
		t.Fatalf("final table holds %d rows, %d of them NaN; model %d and %d NaN", len(res.Rows), gotNaN, len(model), nans)
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
