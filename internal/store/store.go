// Package store is the typed data-access layer for the qos_rules table
// (paper §III-D): "The QoS rules table includes four columns - the QoS key,
// the refill rate, the capacity of the leaky bucket, and the remaining
// credit in the bucket."
//
// It runs over any Executor — the in-process minisql engine, a pooled TCP
// client to a remote minisql server, or the HA failover wrapper — so the QoS
// server code is identical in every deployment shape.
package store

import (
	"fmt"
	"strings"

	"repro/internal/bucket"
	"repro/internal/minisql"
)

// TableName is the rules table.
const TableName = "qos_rules"

// Executor abstracts statement execution (engine, client, pool, failover).
// Execute keeps nothing of args after it returns: Get hands it a recycled
// array.
type Executor interface {
	Execute(sql string, args ...minisql.Value) (minisql.Result, error)
}

// Store provides typed access to QoS rules.
type Store struct {
	db Executor
	// args recycles Get's one-value argument arrays, up to its capacity. A
	// call through the Executor interface moves its arguments to the heap,
	// so without it every first-sight fetch would allocate one.
	args chan *[1]minisql.Value
}

// freeArgs bounds Store.args; why not a sync.Pool: DESIGN.md §3.4.
const freeArgs = 64

// New wraps an executor.
func New(db Executor) *Store { return &Store{db: db, args: make(chan *[1]minisql.Value, freeArgs)} }

// Init creates the rules table if it does not exist.
func (s *Store) Init() error {
	_, err := s.db.Execute(`CREATE TABLE IF NOT EXISTS qos_rules (key TEXT PRIMARY KEY, refill_rate FLOAT, capacity FLOAT, credit FLOAT)`)
	return err
}

func ruleFromRow(row []minisql.Value) (bucket.Rule, error) {
	if len(row) != 4 {
		return bucket.Rule{}, fmt.Errorf("store: row arity %d, want 4", len(row))
	}
	return bucket.Rule{
		Key:        row[0].AsText(),
		RefillRate: row[1].AsFloat(),
		Capacity:   row[2].AsFloat(),
		Credit:     row[3].AsFloat(),
	}, nil
}

// Get fetches one rule by QoS key; found is false when the key is absent
// (the caller then applies the default rule, §II-D).
func (s *Store) Get(key string) (rule bucket.Rule, found bool, err error) {
	var args *[1]minisql.Value
	select {
	case args = <-s.args:
	default:
		args = new([1]minisql.Value)
	}
	args[0] = minisql.Text(key)
	res, err := s.db.Execute(`SELECT key, refill_rate, capacity, credit FROM qos_rules WHERE key = ?`, args[:]...)
	*args = [1]minisql.Value{}
	select {
	case s.args <- args:
	default: // full: left to the GC
	}
	if err != nil {
		return bucket.Rule{}, false, err
	}
	if len(res.Rows) == 0 {
		return bucket.Rule{}, false, nil
	}
	r, err := ruleFromRow(res.Rows[0])
	return r, err == nil, err
}

// Put inserts or replaces a rule.
func (s *Store) Put(r bucket.Rule) error {
	return s.PutAll([]bucket.Rule{r})
}

// putBatch is the most rules one PutAll statement carries.
const putBatch = 256

// PutAll inserts or replaces rules, up to putBatch per REPLACE statement, so
// seeding 10 000 rules takes 40 round trips. Every rule is validated first:
// an invalid one means nothing is written. A statement that fails writes
// none of its rules.
func (s *Store) PutAll(rules []bucket.Rule) error {
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	for len(rules) > 0 {
		n := min(len(rules), putBatch)
		args := make([]minisql.Value, 0, 4*n)
		for _, r := range rules[:n] {
			args = append(args, minisql.Text(r.Key), minisql.Float(r.RefillRate), minisql.Float(r.Capacity), minisql.Float(r.Credit))
		}
		sql := `REPLACE INTO qos_rules VALUES (?, ?, ?, ?)` + strings.Repeat(`, (?, ?, ?, ?)`, n-1)
		if _, err := s.db.Execute(sql, args...); err != nil {
			return err
		}
		rules = rules[n:]
	}
	return nil
}

// Delete removes a rule; it reports whether the key existed.
func (s *Store) Delete(key string) (bool, error) {
	res, err := s.db.Execute(`DELETE FROM qos_rules WHERE key = ?`, minisql.Text(key))
	if err != nil {
		return false, err
	}
	return res.Affected > 0, nil
}

// checkpoint writes back the current credit for one key (§II-D
// check-pointing). A key absent from the database (default-rule key) is a
// no-op, not an error. A credit that changed is an entry in the change feed
// (ChangedSince) like any edit; rewriting the same credit is not.
func (s *Store) checkpoint(key string, credit float64) error {
	_, err := s.db.Execute(`UPDATE qos_rules SET credit = ? WHERE key = ?`,
		minisql.Float(credit), minisql.Text(key))
	return err
}

// CheckpointBatch writes back credits for many keys, returning the first
// error after attempting all keys.
func (s *Store) CheckpointBatch(credits map[string]float64) error {
	var firstErr error
	for k, c := range credits {
		if err := s.checkpoint(k, c); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Changes is one page of the rules table's change feed (minisql's SELECT
// CHANGES): the rules written and deleted after a cursor, each at its latest
// state, and where the page leaves the reader (minisql.Feed).
type Changes struct {
	Rules   []bucket.Rule
	Deleted []string
	minisql.Feed
}

// ChangedSince returns one page of the rules written and deleted after cur.
// Whether cur reads on is the database's decision: when it cannot, the page
// starts a reset scan of the whole table (Feed.Reset).
func (s *Store) ChangedSince(cur minisql.Cursor) (Changes, error) {
	res, err := s.db.Execute(`SELECT CHANGES FROM qos_rules SINCE ?, ?`, minisql.Int(int64(cur.Origin)), minisql.Int(cur.Seq))
	if err != nil {
		return Changes{}, err
	}
	if res.Feed == nil {
		return Changes{}, fmt.Errorf("store: change feed reply without its position")
	}
	ch := Changes{Feed: *res.Feed}
	for _, row := range res.Rows {
		if len(row) != 6 {
			return Changes{}, fmt.Errorf("store: change row arity %d, want 6", len(row))
		}
		if row[1].AsInt() != 0 {
			ch.Deleted = append(ch.Deleted, row[2].AsText())
			continue
		}
		r, err := ruleFromRow(row[2:])
		if err != nil {
			return Changes{}, err
		}
		ch.Rules = append(ch.Rules, r)
	}
	return ch, nil
}

// Count returns the number of rules.
func (s *Store) Count() (int64, error) {
	res, err := s.db.Execute(`SELECT COUNT(*) FROM qos_rules`)
	if err != nil {
		return 0, err
	}
	return res.Rows[0][0].AsInt(), nil
}
