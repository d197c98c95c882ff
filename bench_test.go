package repro

// Ablation benchmarks for the design choices called out in DESIGN.md §2,
// and the socket-free decision path. Each measures something no janus-bench
// experiment, benchmark/ metric or package-level benchmark does; the paper's
// tables and figures are regenerated by cmd/janus-bench and asserted by the
// tests of internal/cloudsim and internal/experiments. Run with
//
//	go test -run '^$' -bench 'Ablation|EmbeddedDecision' .

import (
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/bucket"
	"repro/internal/metrics"
	"repro/internal/table"
	"repro/internal/transport"
	"repro/internal/wire"
)

// BenchmarkEmbeddedDecision measures the pure decision path, with no socket
// and no goroutine: admission.Table.Decide, the decision janusd's workers
// make, for a key already in its table, under a default rule that never
// runs dry.
func BenchmarkEmbeddedDecision(b *testing.B) {
	tbl := admission.New(nil, bucket.Rule{RefillRate: 1e12, Capacity: 1e12, Credit: 1e12}, false, nil, time.Now, metrics.NewRegistry(), nil)
	req := wire.Request{Key: "k", Cost: 1}
	tbl.Decide(req)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tbl.Decide(req)
		}
	})
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationTableSharding compares the paper's single-lock QoS table
// with the sharded future-work optimization under concurrent decisions
// across many keys (§V-C lock-idle discussion). The "+housekeeping"
// variants run decisions while a goroutine repeatedly holds the table
// lock(s) for full Range passes, as the paper's house-keeping thread and
// today's sync/checkpoint/audit scans do — the condition under which the
// single global lock stalls the decision path.
func BenchmarkAblationTableSharding(b *testing.B) {
	mk := func(kind string, now time.Time) (bucketMap, []string) {
		var tb bucketMap = table.NewSharded[*bucket.Bucket](0)
		if kind == "mutex" {
			tb = &mutexTable{m: make(map[string]*bucket.Bucket)}
		}
		keys := make([]string, 512)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", i)
			tb.Put(keys[i], bucket.New(bucket.LimitedGuest(keys[i], 1e9, 1e9), now))
		}
		return tb, keys
	}
	decide := func(b *testing.B, tb bucketMap, keys []string, now time.Time) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := keys[i&511]
				i++
				tb.Get(k).TryConsume(1, now)
			}
		})
	}
	for _, kind := range []string{"mutex", "sharded"} {
		b.Run(kind, func(b *testing.B) {
			now := time.Now()
			tb, keys := mk(kind, now)
			b.ResetTimer()
			decide(b, tb, keys, now)
		})
		b.Run(kind+"+housekeeping", func(b *testing.B) {
			now := time.Now()
			tb, keys := mk(kind, now)
			stop := make(chan struct{})
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
						tb.Range(func(_ string, bk *bucket.Bucket) bool {
							bk.Credit(now)
							return true
						})
					}
				}
			}()
			b.ResetTimer()
			decide(b, tb, keys, now)
			b.StopTimer()
			close(stop)
		})
	}
}

// bucketMap is what BenchmarkAblationTableSharding asks of a QoS table.
type bucketMap interface {
	Get(key string) *bucket.Bucket
	Put(key string, b *bucket.Bucket)
	Range(fn func(string, *bucket.Bucket) bool)
}

// mutexTable is the paper's single-lock synchronized hash map (§III-C), the
// §V-C arm of BenchmarkAblationTableSharding.
type mutexTable struct {
	mu sync.Mutex
	m  map[string]*bucket.Bucket
}

func (t *mutexTable) Get(key string) *bucket.Bucket {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[key]
}

func (t *mutexTable) Put(key string, b *bucket.Bucket) {
	t.mu.Lock()
	t.m[key] = b
	t.mu.Unlock()
}

// Range holds the lock for the whole pass, as the paper's house-keeping
// thread does.
func (t *mutexTable) Range(fn func(string, *bucket.Bucket) bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, b := range t.m {
		if !fn(k, b) {
			return
		}
	}
}

// BenchmarkAblationUDPvsTCP compares the paper's UDP discipline with
// per-request short-lived TCP connections for the router→QoS exchange
// (§III-B justification).
func BenchmarkAblationUDPvsTCP(b *testing.B) {
	handler := func(req wire.Request) wire.Response {
		return wire.Response{Allow: true, Status: wire.StatusOK}
	}
	b.Run("UDP-retries", func(b *testing.B) {
		srv, err := transport.NewServer("127.0.0.1:0", handler)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := transport.Dial(srv.Addr(), transport.Config{Timeout: 50 * time.Millisecond, Retries: 5})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Do(wire.Request{Key: "k", Cost: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TCP-per-request", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func(conn net.Conn) {
					defer conn.Close()
					buf := make([]byte, 2048)
					n, err := conn.Read(buf)
					if err != nil {
						return
					}
					var req wire.Request
					err = wire.DecodeRequestReuse(buf[:n], &req)
					if err != nil {
						return
					}
					resp := handler(req)
					resp.ID = req.ID
					pkt, _ := wire.AppendResponse(nil, resp)
					conn.Write(pkt)
				}(conn)
			}
		}()
		addr := ln.Addr().String()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatal(err)
			}
			pkt, _ := wire.AppendRequest(nil, wire.Request{ID: uint64(i), Key: "k", Cost: 1})
			if _, err := conn.Write(pkt); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 256)
			if _, err := conn.Read(buf); err != nil {
				b.Fatal(err)
			}
			conn.Close()
		}
	})
}

// BenchmarkAblationRefillStrategy compares exact lazy refill — the only
// discipline internal/bucket has — against the paper's §III-C house-keeping
// tick, which lives on only as the closures of the "tick" arm: Allow spends
// without reading the clock, and eq. 1–2 is applied every 1024th call.
func BenchmarkAblationRefillStrategy(b *testing.B) {
	now := time.Now()
	b.Run("lazy", func(b *testing.B) {
		bk := bucket.New(bucket.LimitedGuest("k", 1e9, 1e9), now)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bk.TryConsume(1, now.Add(time.Duration(i)))
		}
	})
	b.Run("tick", func(b *testing.B) {
		const rate, capacity = 1e9, 1e9
		var mu sync.Mutex
		credit, last := capacity, now
		allow := func() bool {
			mu.Lock()
			defer mu.Unlock()
			if credit < 1 {
				return false
			}
			credit--
			return true
		}
		refill := func(t time.Time) {
			mu.Lock()
			credit = math.Min(capacity, credit+t.Sub(last).Seconds()*rate)
			last = t
			mu.Unlock()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			allow()
			if i&1023 == 0 {
				refill(now.Add(time.Duration(i)))
			}
		}
	})
}
