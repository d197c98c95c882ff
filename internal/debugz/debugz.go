// Package debugz is the shared observability endpoint every Janus daemon
// mounts. One mux serves:
//
//	/metrics           Prometheus text exposition of the daemon's registry
//	/debug/traces      JSON dump of the daemon's trace recorder
//	/debug/events      flight-recorder dump (the process-global event ring)
//	/debug/failpoints  fault-injection registry (list and arm; chaos harness)
//	/debug/<name>      JSON snapshot from a daemon-provided Section
//	/debug/pprof/*     the standard net/http/pprof profiles
//	/healthz           liveness probe ("ok": the process is serving)
//	/readyz            readiness probe (503 + JSON detail when the daemon
//	                   should stop taking traffic, e.g. stale membership)
//	/                  plain-text index of everything above
//
// The paper's evaluation (§V) reads throughput and latency out of each tier
// separately; this package is how those numbers leave the process without
// each daemon growing its own ad-hoc HTTP surface.
package debugz

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"sync"

	"repro/internal/daemon"
	"repro/internal/events"
	"repro/internal/failpoint"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/version"
)

// Section is one daemon-specific debug page: Fn's return value is rendered
// as indented JSON at /debug/<name>.
type Section struct {
	// Name is the path component under /debug/.
	Name string
	// Help is one line shown on the index page.
	Help string
	// Fn produces the snapshot to serialize. It is called per request and
	// must be safe for concurrent use.
	Fn func() any
}

// ReadyStatus is one readiness verdict with its supporting evidence,
// rendered as the /readyz JSON body.
type ReadyStatus struct {
	Ready bool `json:"ready"`
	// Detail carries the probe's evidence — view epoch, staleness ages,
	// sync ages — so a 503 explains itself without a second request.
	Detail map[string]any `json:"detail,omitempty"`
}

// Options configures a debug mux.
type Options struct {
	// Service names the daemon (shown on the index and in trace dumps).
	Service string
	// Registry backs /metrics; nil omits the endpoint.
	Registry *metrics.Registry
	// Tracer backs /debug/traces; nil omits the endpoint.
	Tracer *trace.Recorder
	// Sections are additional /debug/<name> pages.
	Sections []Section
	// Ready computes the /readyz verdict per probe; nil means
	// always-ready. Liveness (/healthz) is separate and unconditional:
	// a daemon with a stale view is alive but should stop taking traffic.
	Ready func() ReadyStatus
}

// newMux builds the debug HTTP mux for opts.
func newMux(opts Options) *http.ServeMux {
	mux := http.NewServeMux()
	var index []string
	if opts.Registry != nil {
		// Every daemon that exposes metrics identifies its build: the
		// constant-1 gauge's labels carry the stamped version and the Go
		// toolchain, the standard build_info idiom.
		opts.Registry.GaugeFunc("janus_build_info",
			"build identity of this daemon; the value is always 1, the labels carry the information",
			func() float64 { return 1 },
			metrics.Label{Key: "version", Value: version.Version},
			metrics.Label{Key: "go", Value: runtime.Version()})
		mux.Handle("/metrics", opts.Registry.Handler())
		index = append(index, "/metrics — Prometheus text exposition")
	}
	// The flight recorder is process-global (events.Default), so the dump
	// needs no per-daemon wiring: any daemon that mounts debugz exposes the
	// last few thousand operational events — epoch swaps, handoffs,
	// failpoint fires, audit overspends.
	svc := opts.Service
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, events.Default.Dump(svc))
	})
	index = append(index, "/debug/events — flight recorder (recent operational events, oldest first)")
	if opts.Tracer != nil {
		tracer, service := opts.Tracer, opts.Service
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, tracer.Dump(service))
		})
		index = append(index, "/debug/traces — sampled request traces (recent + slowest)")
	}
	// The failpoint registry is process-global, so the endpoint needs no
	// per-daemon state: every daemon that mounts debugz is chaos-controllable.
	mux.Handle("/debug/failpoints", failpoint.Handler())
	index = append(index, "/debug/failpoints — fault-injection registry (GET lists, POST arms)")
	for _, s := range opts.Sections {
		fn := s.Fn
		mux.HandleFunc("/debug/"+s.Name, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, fn())
		})
		index = append(index, fmt.Sprintf("/debug/%s — %s", s.Name, s.Help))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	index = append(index, "/debug/pprof/ — runtime profiles")
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := w.Write([]byte("ok\n")); err != nil {
			return
		}
	})
	index = append(index, "/healthz — liveness probe")
	ready := opts.Ready
	if ready == nil {
		ready = func() ReadyStatus { return ReadyStatus{Ready: true} }
	}
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		st := ready()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if !st.Ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
	index = append(index, "/readyz — readiness probe (503 + detail when the daemon should stop taking traffic)")
	sort.Strings(index)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%s debug endpoints:\n", opts.Service)
		for _, line := range index {
			fmt.Fprintf(w, "  %s\n", line)
		}
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The header is already out; all we can do is stop writing.
		return
	}
}

// Server is a running debug endpoint.
type Server struct {
	ln     net.Listener
	server *http.Server
	wg     sync.WaitGroup
}

// ServeFor serves the debug mux for opts on addr, daemon d's -metrics-addr,
// under d's name, and logs its listen line. A bind error ends the process.
// The caller closes the returned server (nil when addr is empty) at shutdown.
func ServeFor(d *daemon.Daemon, addr string, opts Options) *Server {
	opts.Service = d.Name
	s, err := Serve(addr, opts)
	if err != nil {
		d.Log.Fatalf("debug endpoint: %v", err)
	}
	if s != nil {
		d.Listening("metrics/debug", "http", s.Addr(), "")
	}
	return s
}

// Serve binds addr and serves the debug mux for opts until Close. An empty
// addr returns (nil, nil) so daemons can pass their -metrics-addr flag
// through unconditionally.
func Serve(addr string, opts Options) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debugz: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, server: &http.Server{Handler: newMux(opts)}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.server.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound address ("" for a nil server, so callers need not
// branch on whether the endpoint was enabled).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the endpoint down. Safe on a nil server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	err := s.server.Close()
	s.wg.Wait()
	return err
}
