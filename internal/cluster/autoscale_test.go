package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/autoscale"
)

// TestAutoscaledRouterLayer wires the §V-A Auto Scaling behaviour to a live
// cluster: the router layer grows while the (synthetic) latency metric is
// above the high-water mark and shrinks when it falls below the low-water
// mark, and the cluster keeps serving at every step.
func TestAutoscaledRouterLayer(t *testing.T) {
	c := newCluster(t, Config{Routers: 1, Rules: rules(1, 1e9, 1e9)})

	var latencyMS atomic.Value
	latencyMS.Store(100.0) // overloaded
	g, err := autoscale.New(autoscale.Config{
		Min: 1, Max: 3,
		HighWater: 50, LowWater: 10,
		Metric: func() float64 { return latencyMS.Load().(float64) },
		ScaleOut: func() (int, error) {
			if _, err := c.AddRouter(); err != nil {
				return c.RouterCount(), err
			}
			return c.RouterCount(), nil
		},
		ScaleIn: func() (int, error) {
			if err := c.RemoveRouter(); err != nil {
				return c.RouterCount(), err
			}
			return c.RouterCount(), nil
		},
		Capacity: func() int { return c.RouterCount() },
		Cooldown: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	step := func(want autoscale.Decision) {
		t.Helper()
		if d := g.EvaluateOnce(); d != want {
			t.Fatalf("decision = %v, want %v (capacity %d)", d, want, c.RouterCount())
		}
		if ok, err := c.Check("user-0"); err != nil || !ok {
			t.Fatalf("cluster broken after scaling: ok=%v err=%v", ok, err)
		}
		time.Sleep(2 * time.Millisecond) // pass the cooldown
	}

	step(autoscale.ScaledOut) // 1 -> 2
	step(autoscale.ScaledOut) // 2 -> 3
	step(autoscale.AtBound)   // at max
	if c.RouterCount() != 3 {
		t.Fatalf("routers = %d", c.RouterCount())
	}

	latencyMS.Store(1.0)     // idle
	step(autoscale.ScaledIn) // 3 -> 2
	step(autoscale.ScaledIn) // 2 -> 1
	step(autoscale.AtBound)  // at min
	if c.RouterCount() != 1 {
		t.Fatalf("routers = %d", c.RouterCount())
	}
}

func TestRemoveLastRouterRefused(t *testing.T) {
	c := newCluster(t, Config{Routers: 1})
	if err := c.RemoveRouter(); err == nil {
		t.Fatal("removed the last router")
	}
}
