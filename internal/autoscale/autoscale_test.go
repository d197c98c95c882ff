package autoscale

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// harness wires a Group to a fake node pool.
type harness struct {
	metric   atomic.Value // float64
	capacity atomic.Int64
	outErr   atomic.Value // error
}

func (h *harness) config() Config {
	h.metric.Store(0.0)
	return Config{
		Min: 1, Max: 5,
		HighWater: 80, LowWater: 20,
		Metric: func() float64 { return h.metric.Load().(float64) },
		ScaleOut: func() (int, error) {
			if e, ok := h.outErr.Load().(error); ok && e != nil {
				return int(h.capacity.Load()), e
			}
			return int(h.capacity.Add(1)), nil
		},
		ScaleIn:  func() (int, error) { return int(h.capacity.Add(-1)), nil },
		Capacity: func() int { return int(h.capacity.Load()) },
		Cooldown: time.Millisecond,
	}
}

func newGroup(t *testing.T, mutate func(*Config)) (*harness, *Group) {
	t.Helper()
	h := &harness{}
	h.capacity.Store(2)
	cfg := h.config()
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, g
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	h := &harness{}
	h.capacity.Store(1)
	bad := h.config()
	bad.Max = 0 // < Min
	if _, err := New(bad); err == nil {
		t.Fatal("Max < Min accepted")
	}
	bad = h.config()
	bad.HighWater, bad.LowWater = 10, 20
	if _, err := New(bad); err == nil {
		t.Fatal("inverted thresholds accepted")
	}
}

func TestHoldInsideBand(t *testing.T) {
	h, g := newGroup(t, nil)
	h.metric.Store(50.0)
	if d := g.EvaluateOnce(); d != Hold {
		t.Fatalf("decision = %v", d)
	}
	if h.capacity.Load() != 2 {
		t.Fatal("capacity changed on hold")
	}
}

func TestScaleOutAboveHighWater(t *testing.T) {
	h, g := newGroup(t, func(c *Config) { c.Cooldown = time.Hour })
	h.metric.Store(95.0)
	if d := g.EvaluateOnce(); d != ScaledOut {
		t.Fatalf("decision = %v", d)
	}
	if h.capacity.Load() != 3 {
		t.Fatalf("capacity = %d", h.capacity.Load())
	}
	// Second action suppressed by cooldown.
	if d := g.EvaluateOnce(); d != Cooling {
		t.Fatalf("decision = %v", d)
	}
	if h.capacity.Load() != 3 {
		t.Fatal("cooldown violated")
	}
}

func TestScaleInBelowLowWater(t *testing.T) {
	h, g := newGroup(t, nil)
	h.metric.Store(5.0)
	if d := g.EvaluateOnce(); d != ScaledIn {
		t.Fatalf("decision = %v", d)
	}
	if h.capacity.Load() != 1 {
		t.Fatalf("capacity = %d", h.capacity.Load())
	}
	// At Min now: further scale-in is bounded.
	time.Sleep(2 * time.Millisecond) // pass cooldown
	if d := g.EvaluateOnce(); d != AtBound {
		t.Fatalf("decision = %v", d)
	}
}

func TestScaleOutBoundedByMax(t *testing.T) {
	h, g := newGroup(t, nil)
	h.capacity.Store(5)
	h.metric.Store(95.0)
	if d := g.EvaluateOnce(); d != AtBound {
		t.Fatalf("decision = %v", d)
	}
}

func TestActionErrorSurfaced(t *testing.T) {
	h, g := newGroup(t, nil)
	h.outErr.Store(errors.New("provisioning failed"))
	h.metric.Store(95.0)
	if d := g.EvaluateOnce(); d != ActionERR {
		t.Fatalf("decision = %v", d)
	}
	if g.Err() == nil {
		t.Fatal("error not recorded")
	}
}

func TestHistoryRecorded(t *testing.T) {
	h, g := newGroup(t, nil)
	h.metric.Store(50.0)
	g.EvaluateOnce()
	h.metric.Store(95.0)
	g.EvaluateOnce()
	ev := g.History()
	if len(ev) != 2 || ev[0].Decision != Hold || ev[1].Decision != ScaledOut {
		t.Fatalf("history = %+v", ev)
	}
	if ev[1].Metric != 95 {
		t.Fatalf("metric = %v", ev[1].Metric)
	}
}

func TestDecisionString(t *testing.T) {
	for d, want := range map[Decision]string{
		Hold: "hold", ScaledOut: "scaled-out", ScaledIn: "scaled-in",
		Cooling: "cooling", AtBound: "at-bound", ActionERR: "action-error",
		Decision(42): "decision(42)",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
}
