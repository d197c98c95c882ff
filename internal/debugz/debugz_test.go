package debugz

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/version"
)

func testOptions() Options {
	reg := metrics.NewRegistry()
	reg.Counter("janus_test_total", "test counter").Add(42)
	rec := trace.NewRecorder(trace.Config{})
	rec.Record(&trace.Trace{ID: trace.HexID(0xbeef), Spans: []trace.Span{
		{Hop: "lb", Dur: 1000},
		{Hop: "router", Dur: 700},
		{Hop: "qosserver", Dur: 300},
	}})
	return Options{
		Service:  "testd",
		Registry: reg,
		Tracer:   rec,
		Sections: []Section{{
			Name: "qos",
			Help: "bucket table",
			Fn:   func() any { return map[string]int{"keys": 3} },
		}},
	}
}

func get(t *testing.T, mux *http.ServeMux, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec, rec.Body.String()
}

func TestMuxMetrics(t *testing.T) {
	mux := newMux(testOptions())
	rec, body := get(t, mux, "/metrics")
	if rec.Code != 200 || !strings.Contains(body, "janus_test_total 42") {
		t.Fatalf("code=%d body:\n%s", rec.Code, body)
	}
}

func TestMuxTraces(t *testing.T) {
	mux := newMux(testOptions())
	rec, body := get(t, mux, "/debug/traces")
	if rec.Code != 200 {
		t.Fatalf("code=%d", rec.Code)
	}
	var d trace.Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if d.Service != "testd" || d.Recorded != 1 || len(d.Recent) != 1 {
		t.Fatalf("dump = %+v", d)
	}
	if len(d.Recent[0].Spans) != 3 {
		t.Fatalf("spans = %+v", d.Recent[0].Spans)
	}
}

func TestMuxSection(t *testing.T) {
	mux := newMux(testOptions())
	_, body := get(t, mux, "/debug/qos")
	var m map[string]int
	if err := json.Unmarshal([]byte(body), &m); err != nil || m["keys"] != 3 {
		t.Fatalf("section body %q err %v", body, err)
	}
}

func TestMuxIndexAndHealth(t *testing.T) {
	mux := newMux(testOptions())
	_, body := get(t, mux, "/")
	for _, want := range []string{"/metrics", "/debug/traces", "/debug/qos", "/debug/pprof/", "/healthz"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %q:\n%s", want, body)
		}
	}
	rec, body := get(t, mux, "/healthz")
	if rec.Code != 200 || body != "ok\n" {
		t.Fatalf("healthz code=%d body=%q", rec.Code, body)
	}
	if rec, _ := get(t, mux, "/no-such-page"); rec.Code != 404 {
		t.Fatalf("unknown path code=%d, want 404", rec.Code)
	}
}

func TestMuxPprof(t *testing.T) {
	mux := newMux(testOptions())
	rec, body := get(t, mux, "/debug/pprof/goroutine?debug=1")
	if rec.Code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof code=%d body:\n%.200s", rec.Code, body)
	}
}

func TestMuxOmitsDisabledEndpoints(t *testing.T) {
	mux := newMux(Options{Service: "bare"})
	if rec, _ := get(t, mux, "/metrics"); rec.Code != 404 {
		t.Fatalf("metrics without registry code=%d, want 404", rec.Code)
	}
	if rec, _ := get(t, mux, "/debug/traces"); rec.Code != 404 {
		t.Fatalf("traces without tracer code=%d, want 404", rec.Code)
	}
}

func TestServe(t *testing.T) {
	s, err := Serve("127.0.0.1:0", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "janus_test_total 42") {
		t.Fatalf("body:\n%s", body)
	}
}

func TestServeDisabled(t *testing.T) {
	s, err := Serve("", testOptions())
	if err != nil || s != nil {
		t.Fatalf("Serve(\"\") = %v, %v, want nil, nil", s, err)
	}
	if s.Addr() != "" {
		t.Fatal("nil server Addr not empty")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMuxReadyz(t *testing.T) {
	// nil Ready: always ready.
	mux := newMux(testOptions())
	rec, body := get(t, mux, "/readyz")
	if rec.Code != 200 || !strings.Contains(body, `"ready": true`) {
		t.Fatalf("nil-Ready readyz: code=%d body:\n%s", rec.Code, body)
	}

	// A failing probe returns 503 with its evidence in the body.
	opts := testOptions()
	opts.Ready = func() ReadyStatus {
		return ReadyStatus{Ready: false, Detail: map[string]any{"view_age_seconds": 42.5}}
	}
	mux = newMux(opts)
	rec, body = get(t, mux, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale readyz code = %d, want 503", rec.Code)
	}
	var st ReadyStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad readyz JSON: %v\n%s", err, body)
	}
	if st.Ready || st.Detail["view_age_seconds"] != 42.5 {
		t.Fatalf("readyz detail lost: %+v", st)
	}

	// Liveness is unconditional: the same daemon still answers /healthz ok.
	rec, body = get(t, mux, "/healthz")
	if rec.Code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz on a not-ready daemon: code=%d body=%q", rec.Code, body)
	}
}

func TestMuxEvents(t *testing.T) {
	events.Record("test", "probe", "debugz", 7)
	mux := newMux(testOptions())
	rec, body := get(t, mux, "/debug/events")
	if rec.Code != 200 {
		t.Fatalf("code=%d", rec.Code)
	}
	var d events.Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if d.Service != "testd" || d.Recorded == 0 {
		t.Fatalf("events dump empty or mislabelled: %+v", d)
	}
	var found bool
	for _, e := range d.Events {
		if e.Component == "test" && e.Kind == "probe" && e.Key == "debugz" {
			found = true
		}
	}
	if !found {
		t.Fatal("recorded event missing from /debug/events dump")
	}
}

func TestMuxBuildInfo(t *testing.T) {
	mux := newMux(testOptions())
	rec, body := get(t, mux, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("code=%d", rec.Code)
	}
	if !strings.Contains(body, `janus_build_info{go="`+runtime.Version()+`",version="`+version.Version+`"} 1`) {
		t.Fatalf("metrics page lacks janus_build_info:\n%s", body)
	}
}
