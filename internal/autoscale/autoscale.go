// Package autoscale implements the Auto-Scaling-group behaviour the paper
// relies on for the request router layer (§V-A: "the request router layer
// can be managed by an Auto Scaling group, where the capacity of the
// request router layer can be automatically adjusted based on a variety of
// metrics such as the average latency observed on the load balancer, the
// average CPU utilization on the request router nodes").
//
// A Group evaluates a scalar metric against a high/low threshold band and
// invokes scale-out/scale-in actions, bounded by min/max capacity and a
// cooldown. Its owner steps it with EvaluateOnce on the owner's own clock:
// the scenario suite's real tier on its injected clock, the DES tier on
// simulated time. The router layer is stateless, so its actions are plain.
// Resizing the QoS layer changes key ownership and needs the membership
// layer's bucket handoff (cluster.AddQoSServer and RemoveQoSServer, with
// Config.Membership).
package autoscale

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Metric samples the controlled signal (e.g. LB P90 latency in ms, or mean
// router CPU utilization).
type Metric func() float64

// Action changes capacity by one node; it returns the new capacity.
type Action func() (int, error)

// Config tunes a Group.
type Config struct {
	// Min and Max bound the capacity (inclusive).
	Min, Max int
	// HighWater triggers scale-out when the metric exceeds it; LowWater
	// triggers scale-in when the metric falls below it.
	HighWater, LowWater float64
	// Metric samples the controlled signal.
	Metric Metric
	// ScaleOut and ScaleIn adjust capacity by one node.
	ScaleOut, ScaleIn Action
	// Capacity reports current capacity.
	Capacity func() int
	// Cooldown suppresses further actions after one fires (default 20s).
	Cooldown time.Duration
	// Clock is injectable for tests (default time.Now).
	Clock func() time.Time
}

// Decision is the outcome of one evaluation.
type Decision int

// Evaluation outcomes.
const (
	Hold Decision = iota
	ScaledOut
	ScaledIn
	Cooling // action wanted but inside the cooldown window
	AtBound // action wanted but capacity already at min/max
	ActionERR
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Hold:
		return "hold"
	case ScaledOut:
		return "scaled-out"
	case ScaledIn:
		return "scaled-in"
	case Cooling:
		return "cooling"
	case AtBound:
		return "at-bound"
	case ActionERR:
		return "action-error"
	default:
		return fmt.Sprintf("decision(%d)", int(d))
	}
}

// Group is an autoscaler.
type Group struct {
	cfg Config

	// evalMu serializes whole control steps. Without it, two concurrent
	// EvaluateOnce callers both observe capacity below Max and
	// cooling=false, then both fire ScaleOut — breaching Max and the
	// cooldown, and invoking the user's Capacity/Scale* callbacks
	// concurrently even though nothing documents them as thread-safe.
	evalMu sync.Mutex

	mu         sync.Mutex
	lastAction time.Time
	history    []Event
	lastErr    error
}

// Event records one evaluation.
type Event struct {
	At       time.Time
	Metric   float64
	Decision Decision
	Capacity int
}

// New validates the config and returns a Group; its owner calls EvaluateOnce
// on a clock of its own.
func New(cfg Config) (*Group, error) {
	if cfg.Metric == nil || cfg.ScaleOut == nil || cfg.ScaleIn == nil || cfg.Capacity == nil {
		return nil, errors.New("autoscale: Metric, ScaleOut, ScaleIn and Capacity are required")
	}
	if cfg.Min < 1 {
		cfg.Min = 1
	}
	if cfg.Max < cfg.Min {
		return nil, fmt.Errorf("autoscale: Max %d < Min %d", cfg.Max, cfg.Min)
	}
	if cfg.HighWater <= cfg.LowWater {
		return nil, fmt.Errorf("autoscale: HighWater %v <= LowWater %v", cfg.HighWater, cfg.LowWater)
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 20 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Group{cfg: cfg}, nil
}

// EvaluateOnce runs one control step and returns its decision. Steps are
// serialized: the metric sample, the bound/cooldown checks, and the action
// execute atomically with respect to other EvaluateOnce calls.
func (g *Group) EvaluateOnce() Decision {
	g.evalMu.Lock()
	defer g.evalMu.Unlock()

	m := g.cfg.Metric()
	now := g.cfg.Clock()
	capacity := g.cfg.Capacity()

	g.mu.Lock()
	cooling := !g.lastAction.IsZero() && now.Sub(g.lastAction) < g.cfg.Cooldown
	g.mu.Unlock()

	decision := Hold
	switch {
	case m > g.cfg.HighWater:
		switch {
		case capacity >= g.cfg.Max:
			decision = AtBound
		case cooling:
			decision = Cooling
		default:
			if newCap, err := g.cfg.ScaleOut(); err != nil {
				decision = ActionERR
				g.setErr(err)
			} else {
				decision = ScaledOut
				capacity = newCap
				g.markAction(now)
			}
		}
	case m < g.cfg.LowWater:
		switch {
		case capacity <= g.cfg.Min:
			decision = AtBound
		case cooling:
			decision = Cooling
		default:
			if newCap, err := g.cfg.ScaleIn(); err != nil {
				decision = ActionERR
				g.setErr(err)
			} else {
				decision = ScaledIn
				capacity = newCap
				g.markAction(now)
			}
		}
	}

	g.mu.Lock()
	g.history = append(g.history, Event{At: now, Metric: m, Decision: decision, Capacity: capacity})
	if len(g.history) > 1024 {
		g.history = g.history[len(g.history)-1024:]
	}
	g.mu.Unlock()
	return decision
}

func (g *Group) markAction(now time.Time) {
	g.mu.Lock()
	g.lastAction = now
	g.mu.Unlock()
}

func (g *Group) setErr(err error) {
	g.mu.Lock()
	g.lastErr = err
	g.mu.Unlock()
}

// Err returns the last action error, if any.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lastErr
}

// History returns a copy of recent evaluation events.
func (g *Group) History() []Event {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Event(nil), g.history...)
}
