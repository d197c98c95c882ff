package qosserver

// Table-driven failover recovery: whatever state a successor inherits — a
// replication snapshot frozen mid-window, a checkpoint that is stale,
// partial, absent, or outright corrupt — the admissions it grants are
// exactly the inherited credit, clamped to capacity. Forgetting
// consumption inside the lost window is the accepted regression (paper
// §II-D, §III-C); minting credit beyond capacity never is.

import (
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/failpoint"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestFailoverRecovery(t *testing.T) {
	consume := func(s *Server, key string, n int) {
		for i := 0; i < n; i++ {
			s.Decide(wire.Request{Key: key})
		}
	}
	cases := []struct {
		name  string
		rules []bucket.Rule
		// prepare replays the pre-failover history against db and returns
		// the successor that survives it.
		prepare func(t *testing.T, db *store.Store) *Server
		// want maps key → admissions expected from the successor when
		// driven well past capacity.
		want map[string]int
	}{
		{
			// The slave's last applied snapshot predates the master's final
			// consumptions: the promoted node serves snapshot credit — the
			// window's 2 consumptions are forgotten, nothing more.
			name:  "promotion/stale-snapshot",
			rules: []bucket.Rule{{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10}},
			prepare: func(t *testing.T, db *store.Store) *Server {
				master := newServer(t, Config{Store: db, ReplicationAddr: "127.0.0.1:0"})
				consume(master, "k", 4)
				slave := newServer(t, Config{Store: db})
				rep := NewReplicator(slave, master.ReplicationAddr(), time.Hour)
				if err := rep.Start(); err != nil { // first pull is synchronous: slave at 6
					t.Fatal(err)
				}
				t.Cleanup(failpoint.DisarmAll)
				if err := failpoint.Arm("qosserver/ha/apply-snapshot", failpoint.Action{Kind: failpoint.Drop}); err != nil {
					t.Fatal(err)
				}
				consume(master, "k", 2) // inside the now-lost replication window
				master.Close()
				rep.Stop()
				return slave
			},
			want: map[string]int{"k": 6},
		},
		{
			// A checkpoint taken mid-history: the replacement resumes the
			// checkpointed credit, not the master's final credit.
			name:  "replacement/stale-checkpoint",
			rules: []bucket.Rule{{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10}},
			prepare: func(t *testing.T, db *store.Store) *Server {
				s1 := newServer(t, Config{Store: db})
				consume(s1, "k", 4)
				s1.checkpointOnce()
				consume(s1, "k", 3) // never checkpointed
				s1.Close()
				return newServer(t, Config{Store: db})
			},
			want: map[string]int{"k": 6},
		},
		{
			// Checkpointing only writes back materialized buckets: a key
			// first served after the checkpoint resumes from its full
			// database credit.
			name: "replacement/partial-checkpoint",
			rules: []bucket.Rule{
				{Key: "k1", RefillRate: 0, Capacity: 10, Credit: 10},
				{Key: "k2", RefillRate: 0, Capacity: 10, Credit: 10},
			},
			prepare: func(t *testing.T, db *store.Store) *Server {
				s1 := newServer(t, Config{Store: db})
				consume(s1, "k1", 4)
				s1.checkpointOnce() // k2 has no bucket yet: its row is untouched
				consume(s1, "k2", 2)
				s1.Close()
				return newServer(t, Config{Store: db})
			},
			want: map[string]int{"k1": 6, "k2": 10},
		},
		{
			// No checkpoint ever ran: the replacement falls back to the
			// database's initial credit — forgotten consumption bounded by
			// one capacity.
			name:  "replacement/empty-checkpoint",
			rules: []bucket.Rule{{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10}},
			prepare: func(t *testing.T, db *store.Store) *Server {
				s1 := newServer(t, Config{Store: db})
				consume(s1, "k", 5)
				s1.Close()
				return newServer(t, Config{Store: db})
			},
			want: map[string]int{"k": 10},
		},
		{
			// A corrupt checkpoint row with credit above capacity (the
			// UPDATE path does not validate) must be clamped on load: the
			// replacement admits exactly capacity, never the minted 25.
			name:  "replacement/corrupt-checkpoint-clamped",
			rules: []bucket.Rule{{Key: "k", RefillRate: 0, Capacity: 10, Credit: 10}},
			prepare: func(t *testing.T, db *store.Store) *Server {
				if err := db.CheckpointBatch(map[string]float64{"k": 25}); err != nil {
					t.Fatal(err)
				}
				return newServer(t, Config{Store: db})
			},
			want: map[string]int{"k": 10},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newDB(t, tc.rules...)
			successor := tc.prepare(t, db)
			for key, want := range tc.want {
				allowed := 0
				for i := 0; i < 20; i++ {
					if successor.Decide(wire.Request{Key: key}).Allow {
						allowed++
					}
				}
				if allowed != want {
					t.Errorf("%s: successor admitted %d of 20, want %d", key, allowed, want)
				}
			}
		})
	}
}
