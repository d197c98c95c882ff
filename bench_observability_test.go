package repro

// Benchmarks for the tracing overhead contract (DESIGN.md §7): sampling
// disabled must cost the hot path no more than one atomic load per request.
// Run with
//
//	go test -bench=Observability -benchtime=2s
//
// and record the results in BENCH_observability.json.

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/qosserver"
	"repro/internal/router"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newBenchServer(b *testing.B) *qosserver.Server {
	b.Helper()
	srv, err := qosserver.New(qosserver.Config{
		Addr:        "127.0.0.1:0",
		DefaultRule: bucket.Rule{RefillRate: 1e12, Capacity: 1e12, Credit: 1e12},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	return srv
}

// BenchmarkObservabilityDecide measures the QoS server's decision path with
// the trace branch untaken (TraceID 0, the steady state) and taken.
func BenchmarkObservabilityDecide(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			srv := newBenchServer(b)
			req := wire.Request{Key: "bench-key", Cost: 1}
			if traced {
				req.TraceID = 0xabcdef
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.ID = uint64(i)
				srv.Decide(req)
			}
		})
	}
}

// BenchmarkObservabilityDecideAudited measures the decision path with the
// admission-audit ledger accounting every grant and admission — the cost
// quoted in qosserver.Config.Audit's doc comment, to be read against
// BenchmarkObservabilityDecide/untraced. The hour-long audit interval keeps
// the background conservation pass out of the measurement window.
func BenchmarkObservabilityDecideAudited(b *testing.B) {
	srv, err := qosserver.New(qosserver.Config{
		Addr:          "127.0.0.1:0",
		DefaultRule:   bucket.Rule{RefillRate: 1e12, Capacity: 1e12, Credit: 1e12},
		Audit:         true,
		AuditInterval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	req := wire.Request{Key: "bench-key", Cost: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint64(i)
		srv.Decide(req)
	}
}

// BenchmarkObservabilityRouterRoundTrip measures the full HTTP→UDP→HTTP
// admission round trip through a real router and QoS server at edge
// sampling rates 0 (production steady state), 0.01, and 1.
func BenchmarkObservabilityRouterRoundTrip(b *testing.B) {
	for _, rate := range []float64{0, 0.01, 1} {
		b.Run(fmt.Sprintf("sample=%v", rate), func(b *testing.B) {
			srv := newBenchServer(b)
			r, err := router.New(router.Config{
				Addr:      "127.0.0.1:0",
				Backends:  []string{srv.Addr()},
				Transport: transport.Config{Timeout: transport.DefaultTimeout * 100},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			r.Tracer().SetRate(rate)
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
			defer client.CloseIdleConnections()
			url := "http://" + r.Addr() + wire.HTTPPath + "?key=bench-key"
			// Warm the connection and the bucket.
			warm, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, warm.Body)
			warm.Body.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(url)
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
	}
}

// BenchmarkObservabilitySampler isolates the per-request cost of the
// sampling gate itself.
func BenchmarkObservabilitySampler(b *testing.B) {
	for _, rate := range []float64{0, 0.01, 1} {
		b.Run(fmt.Sprintf("rate=%v", rate), func(b *testing.B) {
			s := trace.NewSampler(rate)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					s.Sample()
				}
			})
		})
	}
}
