package autoscale

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic cooldown tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestDecisionPathsUnderInjectedClock walks one Group through every
// decision path — cooldown re-entry, flapping across the band inside the
// cooldown window, and pinning at Max then Min — with the clock advanced
// explicitly so each transition is exact, not timing-dependent.
func TestDecisionPathsUnderInjectedClock(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	h := &harness{}
	h.capacity.Store(2)
	cfg := h.config()
	cfg.Max = 5
	cfg.Cooldown = 10 * time.Second
	cfg.Clock = clk.now
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name    string
		metric  float64
		advance time.Duration
		want    Decision
		wantCap int64
	}{
		{"hold inside band", 50, 0, Hold, 2},
		{"scale out above high water", 95, 0, ScaledOut, 3},
		{"cooling blocks re-entry", 95, 5 * time.Second, Cooling, 3},
		{"flap low inside cooldown still cooling", 5, 1 * time.Second, Cooling, 3},
		{"cooldown expiry re-arms scale out", 95, 5 * time.Second, ScaledOut, 4},
		{"flap low right after action cools", 5, 1 * time.Second, Cooling, 4},
		{"second expiry scales to max", 95, 10 * time.Second, ScaledOut, 5},
		{"max pins even past cooldown", 95, 20 * time.Second, AtBound, 5},
		{"at-bound did not reset cooldown state", 5, 0, ScaledIn, 4},
		{"cooling after the scale-in", 5, 1 * time.Second, Cooling, 4},
		{"drain toward min", 5, 10 * time.Second, ScaledIn, 3},
		{"drain toward min 2", 5, 10 * time.Second, ScaledIn, 2},
		{"drain to min", 5, 10 * time.Second, ScaledIn, 1},
		{"min pins even past cooldown", 5, 20 * time.Second, AtBound, 1},
		{"hold recovers inside band", 50, 0, Hold, 1},
	}
	for _, s := range steps {
		clk.advance(s.advance)
		h.metric.Store(s.metric)
		if d := g.EvaluateOnce(); d != s.want {
			t.Fatalf("%s: decision = %v, want %v", s.name, d, s.want)
		}
		if c := h.capacity.Load(); c != s.wantCap {
			t.Fatalf("%s: capacity = %d, want %d", s.name, c, s.wantCap)
		}
	}
}

// racyPool deliberately uses plain, unsynchronized fields. The Group
// contract after the serialization fix is that Metric, Capacity, ScaleOut
// and ScaleIn never run concurrently with each other, so plain fields are
// legal here — and if serialization ever regresses, -race flags these
// fields immediately instead of the bug surfacing as a silent Max breach.
type racyPool struct {
	capacity int
	samples  int
}

func TestEvaluationSerializedUnderRace(t *testing.T) {
	pool := &racyPool{capacity: 2}
	cfg := Config{
		Min: 1, Max: 8,
		HighWater: 80, LowWater: 20,
		Metric: func() float64 {
			pool.samples++ // plain write: races iff evaluations overlap
			if pool.samples%3 == 0 {
				return 95 // flap across the band to exercise both actions
			}
			return 5
		},
		ScaleOut: func() (int, error) { pool.capacity++; return pool.capacity, nil },
		ScaleIn:  func() (int, error) { pool.capacity--; return pool.capacity, nil },
		Capacity: func() int { return pool.capacity },
		Cooldown: 100 * time.Microsecond,
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				g.EvaluateOnce()
				g.History()
				g.Err()
			}
		}()
	}
	wg.Wait()

	if pool.capacity < cfg.Min || pool.capacity > cfg.Max {
		t.Fatalf("capacity %d escaped [%d,%d]", pool.capacity, cfg.Min, cfg.Max)
	}
	// Serialized steps imply exact bookkeeping: capacity must equal the
	// start value plus the signed sum of recorded actions, and no event
	// may have observed capacity outside the bounds.
	outs, ins := 0, 0
	for _, ev := range g.History() {
		if ev.Capacity < cfg.Min || ev.Capacity > cfg.Max {
			t.Fatalf("event recorded out-of-bounds capacity %d", ev.Capacity)
		}
		switch ev.Decision {
		case ScaledOut:
			outs++
		case ScaledIn:
			ins++
		}
	}
	// History is a ring (1024); only check the books when nothing rolled off.
	if len(g.History()) < 1024 && pool.capacity != 2+outs-ins {
		t.Fatalf("capacity %d != 2 + %d outs - %d ins", pool.capacity, outs, ins)
	}
}
