package qosserver

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/minisql"
	"repro/internal/store"
	"repro/internal/wire"
)

func benchServer(b *testing.B, rules int) *Server {
	b.Helper()
	st := store.New(minisql.NewEngine())
	if err := st.Init(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rules; i++ {
		if err := st.Put(bucket.Rule{Key: fmt.Sprintf("k%d", i), RefillRate: 1e9, Capacity: 1e9, Credit: 1e9}); err != nil {
			b.Fatal(err)
		}
	}
	s, err := New(Config{Addr: "127.0.0.1:0", Store: st})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkDecideHotKey measures the resident-bucket decision path — the
// per-request cost once a key's rule is cached locally.
func BenchmarkDecideHotKey(b *testing.B) {
	s := benchServer(b, 1)
	req := wire.Request{Key: "k0", Cost: 1}
	s.Decide(req) // install
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Decide(req)
	}
}

// BenchmarkDecideParallel measures contended decisions across a key
// population — the §V-C locking story on the table the product runs (the
// single-lock comparison is BenchmarkAblationTableSharding).
func BenchmarkDecideParallel(b *testing.B) {
	const keys = 256
	s := benchServer(b, keys)
	for i := 0; i < keys; i++ {
		s.Decide(wire.Request{Key: fmt.Sprintf("k%d", i), Cost: 1})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.Decide(wire.Request{Key: fmt.Sprintf("k%d", i&(keys-1)), Cost: 1})
			i++
		}
	})
}

// BenchmarkDecideColdKey measures the first-sight path: database fetch plus
// bucket installation.
func BenchmarkDecideColdKey(b *testing.B) {
	s := benchServer(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Decide(wire.Request{Key: fmt.Sprintf("cold-%d", i), Cost: 1})
	}
}

// BenchmarkSnapshotTable measures the HA replication snapshot cost as the
// table grows.
func BenchmarkSnapshotTable(b *testing.B) {
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			s := benchServer(b, 0)
			for i := 0; i < n; i++ {
				s.Decide(wire.Request{Key: fmt.Sprintf("k%d", i), Cost: 1})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := len(s.snapshotTable()); got != n {
					b.Fatalf("snapshot size %d, want %d", got, n)
				}
			}
		})
	}
}

// BenchmarkPullOnce measures one HA pull of a 10 000-key table, master and
// slave in one process: snapshot, encode, loopback TCP, decode, apply.
func BenchmarkPullOnce(b *testing.B) {
	const n = 10000
	master, err := New(Config{Addr: "127.0.0.1:0", ReplicationAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { master.Close() })
	for i := 0; i < n; i++ {
		master.Decide(wire.Request{Key: fmt.Sprintf("k%d", i), Cost: 1})
	}
	slave := benchServer(b, 0)
	rep := NewReplicator(slave, master.ReplicationAddr(), time.Hour)
	b.Cleanup(rep.Stop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.pullOnce(); err != nil {
			b.Fatal(err)
		}
	}
	if got := slave.TableLen(); got != n {
		b.Fatalf("slave holds %d keys, want %d", got, n)
	}
}

// BenchmarkSyncOnce measures one rule-sync pass shaped like the benchmark's
// dns-sync workload: 10 000 resident keys, 100 rule edits before each pass,
// and the store over a loopback minisql server and pool. The edits are not
// timed; the server's side of each statement is, as it runs in this process.
func BenchmarkSyncOnce(b *testing.B) {
	const resident, edits = 10000, 100
	engine := minisql.NewEngine()
	srv, err := minisql.NewServer(engine, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	pool := minisql.NewPool(srv.Addr(), 8)
	b.Cleanup(pool.Close)
	direct := store.New(engine)
	if err := direct.Init(); err != nil {
		b.Fatal(err)
	}
	rules := make([]bucket.Rule, resident)
	for i := range rules {
		rules[i] = bucket.Rule{Key: fmt.Sprintf("k%05d", i), RefillRate: 1, Capacity: 10, Credit: 10}
	}
	if err := direct.PutAll(rules); err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Addr: "127.0.0.1:0", Store: store.New(pool)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if err := s.Preload(); err != nil {
		b.Fatal(err)
	}
	s.SyncOnce()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < edits; j++ {
			r := rules[(i*edits+j)%resident]
			r.Capacity = float64(11 + i%2)
			if err := direct.Put(r); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		s.SyncOnce()
	}
	if s.TableLen() != resident {
		b.Fatalf("%d keys resident, want %d", s.TableLen(), resident)
	}
}
