// Package core is the embeddable facade over the Janus QoS framework — the
// paper's primary contribution assembled into a single object.
//
// Two deployment shapes are offered:
//
//   - Embedded (this package): the QoS server layer runs in-process as a
//     set of partitioned leaky-bucket engines, fronted by the same
//     key→partition mapping the request router uses (membership.Pick,
//     jump consistent hash). Check() makes an
//     admission decision with zero network hops. The database layer is an
//     embedded minisql engine, with the same rule-sync and checkpointing
//     machinery as the distributed deployment.
//   - Distributed (internal/cluster): the full multi-layer system — load
//     balancer, request routers, QoS servers, database — on real sockets.
//
// Both shapes share all decision logic (internal/qosserver), so behaviour
// established by the embedded tests holds for the networked system.
package core

import (
	"time"

	"repro/internal/bucket"
	"repro/internal/membership"
	"repro/internal/minisql"
	"repro/internal/qosserver"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config configures an embedded Janus instance.
type Config struct {
	// Partitions is the number of QoS server partitions (default 1). More
	// partitions reduce lock contention across keys, mirroring scaling the
	// QoS server layer out.
	Partitions int
	// DefaultRule applies to unknown keys (zero value denies).
	DefaultRule bucket.Rule
	// Rules seeds the rule database.
	Rules []bucket.Rule
	// SyncInterval / CheckpointInterval enable the QoS server maintenance
	// threads (see qosserver.Config).
	SyncInterval       time.Duration
	CheckpointInterval time.Duration
}

// Janus is an embedded deployment.
type Janus struct {
	servers []*qosserver.Server
	engine  *minisql.Engine
	store   *store.Store
}

// New builds an embedded Janus instance.
func New(cfg Config) (*Janus, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	j := &Janus{engine: minisql.NewEngine()}
	j.store = store.New(j.engine)
	if err := j.store.Init(); err != nil {
		return nil, err
	}
	if err := j.store.PutAll(cfg.Rules); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Partitions; i++ {
		s, err := qosserver.New(qosserver.Config{
			Addr:               "127.0.0.1:0",
			DefaultRule:        cfg.DefaultRule,
			Store:              j.store,
			SyncInterval:       cfg.SyncInterval,
			CheckpointInterval: cfg.CheckpointInterval,
		})
		if err != nil {
			j.Close()
			return nil, err
		}
		j.servers = append(j.servers, s)
	}
	return j, nil
}

// Check returns TRUE to admit one request for key, FALSE to deny — the
// paper's boolean QoS response.
func (j *Janus) Check(key string) bool {
	return j.CheckCost(key, 1)
}

// CheckCost admits a request consuming cost credits.
func (j *Janus) CheckCost(key string, cost float64) bool {
	i, _ := membership.Pick(key, len(j.servers)) // len > 0 by construction
	s := j.servers[i]
	return s.Decide(wire.Request{Key: key, Cost: cost}).Allow
}

// SetRule creates or updates a rule, effective on next sync (or
// immediately for keys not yet resident).
func (j *Janus) SetRule(r bucket.Rule) error {
	if err := j.store.Put(r); err != nil {
		return err
	}
	// Propagate eagerly so embedded callers need not wait for a sync tick.
	for _, s := range j.servers {
		s.SyncOnce()
	}
	return nil
}

// Rule fetches the stored rule for key.
func (j *Janus) Rule(key string) (bucket.Rule, bool, error) { return j.store.Get(key) }

// Store exposes the rule store for advanced management.
func (j *Janus) Store() *store.Store { return j.store }

// Partitions returns the number of QoS partitions.
func (j *Janus) Partitions() int { return len(j.servers) }

// Stats aggregates decision counters across partitions.
func (j *Janus) Stats() qosserver.Stats {
	var agg qosserver.Stats
	for _, s := range j.servers {
		agg.Add(s.Stats())
	}
	return agg
}

// Checkpoint forces a credit write-back on every partition.
func (j *Janus) Checkpoint() {
	for _, s := range j.servers {
		s.CheckpointOnce()
	}
}

// Close shuts all partitions down.
func (j *Janus) Close() {
	for _, s := range j.servers {
		s.Close()
	}
}
