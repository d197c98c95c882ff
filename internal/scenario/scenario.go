// Package scenario composes loadgen, the simulated deployment (cloudsim),
// autoscale, and the in-process cluster into named, seeded, SLO-checked
// end-to-end workload runs — the million-user regression harness of
// ROADMAP's scenario suite.
//
// Each scenario describes one adversarial traffic shape (Zipfian skew under
// hot-set churn, diurnal sine, 10× flash crowd, multi-tenant rule classes,
// slow-loris clients) and runs in two tiers:
//
//   - DES tier (RunDES): the workload at simulated millions-of-users scale
//     as a cloudsim.Run — client → LB → autoscaled routers → a QoS node
//     deciding on internal/bucket buckets, on the virtual clock,
//     deterministic per seed (the simclock analyzer enforces that no
//     wall-clock or global-rand call sneaks in) — with every key's
//     admissions held to C + r·T by the oracle here.
//   - Real tier (RunReal): the same shape at max real throughput against a
//     live loopback cluster — gateway LB, routers with the UDP transport,
//     QoS servers with CoDel shedding on their intake FIFO and the online
//     audit ledger — with autoscale.Group wired to the LB's measured p90
//     so scale-out/scale-in events are part of the asserted trace.
//
// Every run emits a Report (admit accuracy, degraded/drop/error rates, p99
// sojourn, the scale-event sequence, audit verdict) that is checked against
// the scenario's per-tier SLO budget and appended to SCENARIOS_SLO.json.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/autoscale"
	"repro/internal/bucket"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Tenant is one rule class: a population of keys sharing a token-bucket
// rule, receiving a fixed share of the generated traffic.
type Tenant struct {
	Name string
	// Weight is the tenant's share of arrivals (relative).
	Weight float64
	// Users is the DES-tier key population.
	Users int
	// RealKeys is the number of rules seeded in the real tier (small, so
	// cluster boot stays fast; skew makes the hot subset what matters).
	RealKeys int
	// Rate and Capacity are the per-key token-bucket parameters (r, C).
	Rate     float64
	Capacity float64
}

// RealParams sizes the real-cluster tier of a scenario.
type RealParams struct {
	// DecideDelay pins the QoS decide path via the worker/decide
	// failpoint, fixing the governed capacity at 1s/DecideDelay: the
	// failpoint stalls once per datagram, and each datagram carries one
	// request.
	DecideDelay time.Duration
	// Duration is the short (push CI) run length; LongDuration the
	// nightly budget.
	Duration     time.Duration
	LongDuration time.Duration
	// Workers is the open-loop client concurrency.
	Workers int
	// LorisConns is the number of adversarial held connections.
	LorisConns int
}

// Band is an autoscale band: bounds on the router count, and thresholds on
// a windowed p90 latency in milliseconds, evaluated every EvalInterval.
type Band struct {
	MinRouters, MaxRouters  int
	HighWaterMs, LowWaterMs float64
	EvalInterval, Cooldown  time.Duration
}

// group builds the band's autoscale group over latency histogram lat.
func (b Band) group(lat *metrics.Histogram, out, in autoscale.Action, capacity func() int, clock func() time.Time) (*autoscale.Group, error) {
	win := newHistWindow(lat)
	return autoscale.New(autoscale.Config{
		Min: b.MinRouters, Max: b.MaxRouters,
		HighWater: b.HighWaterMs, LowWater: b.LowWaterMs,
		Metric: func() float64 {
			d, n := win.advance(0.90)
			if n == 0 {
				// An empty window is no evidence either way: report the
				// middle of the band so the group holds.
				return (b.HighWaterMs + b.LowWaterMs) / 2
			}
			return float64(d) / float64(time.Millisecond)
		},
		ScaleOut: out, ScaleIn: in, Capacity: capacity,
		Cooldown: b.Cooldown,
		Clock:    clock,
	})
}

// scaleTrace records grp's scale actions on rep, timed from start.
func scaleTrace(rep *Report, grp *autoscale.Group, start time.Time) {
	for _, ev := range grp.History() {
		switch ev.Decision {
		case autoscale.ScaledOut:
			rep.ScaledOut++
		case autoscale.ScaledIn:
			rep.ScaledIn++
		default:
			continue
		}
		rep.ScaleEvents = append(rep.ScaleEvents, ScaleEvent{
			AtSeconds: ev.At.Sub(start).Seconds(),
			Decision:  ev.Decision.String(),
			Capacity:  ev.Capacity,
		})
	}
}

// Every scenario's DES tier runs desDuration virtual seconds on desRouter
// routers, whose capacity Scenario.Profile rates are expressed against. Each
// router has a desRouterQueue-deep waiting room: overflow answers degraded,
// as CoDel sheds in the real tier.
const (
	desDuration    = 30 * time.Second
	desRouterQueue = 400
)

var desRouter = sim.C3Large

// desBand scales every scenario's DES-tier router layer on a 3–8 ms band of
// the p90 of end-to-end latency; MaxRouters is the scenario's DESMaxRouters.
var desBand = Band{
	MinRouters: 1, HighWaterMs: 8, LowWaterMs: 3,
	EvalInterval: 500 * time.Millisecond, Cooldown: time.Second,
}

// realBand scales every scenario's real-tier router layer: 1–3 routers on
// a 6–18 ms band of the LB's p90.
var realBand = Band{
	MinRouters: 1, MaxRouters: 3, HighWaterMs: 18, LowWaterMs: 6,
	EvalInterval: 250 * time.Millisecond, Cooldown: 500 * time.Millisecond,
}

// Scenario is one named workload.
type Scenario struct {
	Name string
	Desc string
	// Tenants define the rule classes (at least one).
	Tenants []Tenant
	// ZipfS is the Zipf exponent of key popularity (> 1).
	ZipfS float64
	// RotateEvery rotates the Zipf hot set every N draws (0 = no churn).
	RotateEvery int64
	// LorisFrac is the DES-tier fraction of arrivals that are slow-loris
	// jobs (the real tier models loris as held connections instead).
	LorisFrac float64
	// Profile shapes the arrival rate, parameterized by the capacity of
	// one router/server node and the tier's run duration, so both tiers
	// stress the same multiples on their own time base.
	Profile func(capacity float64, dur time.Duration) RateProfile
	// DESMaxRouters caps the DES tier's autoscaled router layer.
	DESMaxRouters int

	Real    RealParams
	DESSLO  SLO
	RealSLO SLO
}

// keyGen builds the scenario's key stream. Real-tier draws come from the
// small seeded-rule population; DES draws from the full user population.
// Keys are "<tenant>-z<N>-<rank>", so tenant populations never collide and
// rule lookup is a prefix match.
func (sc Scenario) keyGen(seed int64, real bool) loadgen.KeyGen {
	comps := make([]loadgen.TierComponent, 0, len(sc.Tenants))
	for i, t := range sc.Tenants {
		n := t.Users
		if real {
			n = t.RealKeys
		}
		inner := loadgen.NewZipfGen(seed+int64(i)*104729+1, sc.ZipfS, n, sc.RotateEvery, 0)
		comps = append(comps, loadgen.TierComponent{
			Gen:    &loadgen.PrefixGen{Prefix: t.Name + "-", Inner: inner},
			Weight: t.Weight,
		})
	}
	if len(comps) == 1 {
		return comps[0].Gen
	}
	g, err := loadgen.NewTieredGen(seed, comps)
	if err != nil {
		// Scenarios are static declarations; a bad tenant table is a
		// programming error, not a runtime condition.
		panic(fmt.Sprintf("scenario %s: %v", sc.Name, err))
	}
	return g
}

// rule is key's rule in the tenant's class, for both tiers and the oracle.
func (t Tenant) rule(key string) bucket.Rule {
	return bucket.Rule{Key: key, RefillRate: t.Rate, Capacity: t.Capacity, Credit: t.Capacity}
}

// ruleFor, the DES tier's admission.Rules, finds a key's rule by tenant
// prefix; a key of no tenant gets the zero default rule, which denies.
func (sc Scenario) ruleFor(key string) (bucket.Rule, bool, error) {
	for _, t := range sc.Tenants {
		if strings.HasPrefix(key, t.Name+"-") {
			return t.rule(key), true, nil
		}
	}
	return bucket.Rule{}, false, nil
}

// registry holds the named scenarios. Rates are multiples of one node's
// capacity; budget calibration notes live in DESIGN.md §3.7.
var registry = []Scenario{
	{
		Name:          "zipf-churn",
		Desc:          "Zipfian popularity (s=1.3) over 2M users with the hot set rotating every 20k draws; steady 0.7× load",
		Tenants:       []Tenant{{Name: "user", Weight: 1, Users: 2_000_000, RealKeys: 64, Rate: 2, Capacity: 5}},
		ZipfS:         1.3,
		RotateEvery:   20_000,
		Profile:       func(cap float64, _ time.Duration) RateProfile { return Steady(0.7 * cap) },
		DESMaxRouters: 3,
		Real: RealParams{
			DecideDelay: 2 * time.Millisecond, Duration: 6 * time.Second, LongDuration: 20 * time.Second,
			Workers: 32,
		},
		// No MinHotUtilization here: under churn a key is hot only for its
		// rotation window, so full-run utilization of the C + r·T bound is
		// structurally far below 1 (the bound is what matters).
		DESSLO: SLO{
			MaxAdmitOverBound: 1.02,
			MaxDegradedFrac:   0.01, MaxP99SojournMs: 25,
		},
		RealSLO: SLO{
			MaxAdmitOverBound: 1.05, MaxErrorFrac: 0.10, MaxP99SojournMs: 120,
			RequireZeroDrops: true, RequireAuditOK: true,
		},
	},
	{
		Name:          "diurnal",
		Desc:          "sinusoidal day/night pacing swinging 0.2×–1.4× one node's capacity across three cycles; autoscale follows the wave",
		Tenants:       []Tenant{{Name: "user", Weight: 1, Users: 500_000, RealKeys: 64, Rate: 50, Capacity: 100}},
		ZipfS:         1.2,
		Profile:       func(cap float64, dur time.Duration) RateProfile { return diurnal(0.8*cap, 0.6*cap, dur/3) },
		DESMaxRouters: 3,
		Real: RealParams{
			DecideDelay: 2 * time.Millisecond, Duration: 7 * time.Second, LongDuration: 21 * time.Second,
			Workers: 64,
		},
		DESSLO: SLO{
			MaxAdmitOverBound: 1.02, MaxDegradedFrac: 0.10, MaxP99SojournMs: 150,
			MinScaledOut: 1, MinScaledIn: 1, RequireOutBeforeIn: true,
		},
		RealSLO: SLO{
			MaxAdmitOverBound: 1.05, MaxErrorFrac: 0.35, MaxP99SojournMs: 250,
			MinScaledOut: 1, RequireZeroDrops: true, RequireAuditOK: true,
		},
	},
	{
		Name:    "flash-crowd",
		Desc:    "10× step within 0.5s on top of 0.5× base load, held for seconds, then a lull; scale-out during the crowd, scale-in after",
		Tenants: []Tenant{{Name: "user", Weight: 1, Users: 1_000_000, RealKeys: 64, Rate: 50, Capacity: 100}},
		ZipfS:   1.2,
		Profile: func(cap float64, dur time.Duration) RateProfile {
			// The ramp stays a fixed 500ms — the 10×-in-≤1s step is the
			// point — while onset and hold scale with the run budget.
			return flashCrowd(0.5*cap, 0.25*cap, 10, dur/4, 500*time.Millisecond, dur*3/20)
		},
		DESMaxRouters: 4,
		Real: RealParams{
			DecideDelay: 2 * time.Millisecond, Duration: 8 * time.Second, LongDuration: 24 * time.Second,
			Workers: 96,
		},
		DESSLO: SLO{
			MaxAdmitOverBound: 1.02, MaxDegradedFrac: 0.35, MaxP99SojournMs: 250,
			MinScaledOut: 1, MinScaledIn: 1, RequireOutBeforeIn: true,
		},
		// The error budget is loose by design: an open loop driving 10× the
		// governed capacity is supposed to see client timeouts; the hard
		// promises during the crowd are conservation, zero FIFO drops, the
		// audit verdict, and the scale-out→scale-in trace. The p99 sojourn
		// budget is the max over seeds 1–10 (331 ms on 2 vCPU) plus a 50 ms
		// margin, about 1.5× the spread across those seeds, so one seed's
		// scheduler noise does not fail the gate.
		RealSLO: SLO{
			MaxAdmitOverBound: 1.05, MaxErrorFrac: 0.60, MaxP99SojournMs: 380,
			MinScaledOut: 1, MinScaledIn: 1, RequireOutBeforeIn: true,
			RequireZeroDrops: true, RequireAuditOK: true,
		},
	},
	{
		Name: "multi-tenant",
		Desc: "free/paid/enterprise rule classes with distinct rates sharing one deployment at 0.75× load; per-class entitlement must hold under skew",
		Tenants: []Tenant{
			{Name: "ent", Weight: 2, Users: 10_000, RealKeys: 8, Rate: 20, Capacity: 50},
			{Name: "paid", Weight: 3, Users: 100_000, RealKeys: 16, Rate: 2, Capacity: 10},
			{Name: "free", Weight: 5, Users: 1_000_000, RealKeys: 32, Rate: 0.2, Capacity: 2},
		},
		ZipfS:         1.3,
		Profile:       func(cap float64, _ time.Duration) RateProfile { return Steady(0.75 * cap) },
		DESMaxRouters: 3,
		Real: RealParams{
			DecideDelay: 2 * time.Millisecond, Duration: 6 * time.Second, LongDuration: 18 * time.Second,
			Workers: 48,
		},
		DESSLO: SLO{
			MaxAdmitOverBound: 1.02, MinHotUtilization: 0.80,
			MaxDegradedFrac: 0.02, MaxP99SojournMs: 50,
		},
		RealSLO: SLO{
			MaxAdmitOverBound: 1.05, MaxErrorFrac: 0.15, MaxP99SojournMs: 150,
			RequireZeroDrops: true, RequireAuditOK: true,
		},
	},
	{
		Name:          "slow-loris",
		Desc:          "adversarial stragglers: 3% of DES jobs demand 60× service / 24 held trickling connections in the real tier; normal-traffic tail must stay bounded, autoscale absorbs the stragglers",
		Tenants:       []Tenant{{Name: "user", Weight: 1, Users: 200_000, RealKeys: 64, Rate: 50, Capacity: 100}},
		ZipfS:         1.2,
		LorisFrac:     0.03,
		Profile:       func(cap float64, _ time.Duration) RateProfile { return Steady(0.55 * cap) },
		DESMaxRouters: 4,
		Real: RealParams{
			DecideDelay: 2 * time.Millisecond, Duration: 6 * time.Second, LongDuration: 18 * time.Second,
			Workers: 32, LorisConns: 24,
		},
		DESSLO: SLO{
			MaxAdmitOverBound: 1.02, MaxDegradedFrac: 0.05, MaxP99SojournMs: 250,
			MinScaledOut: 1,
		},
		RealSLO: SLO{
			MaxAdmitOverBound: 1.05, MaxErrorFrac: 0.10, MaxP99SojournMs: 120,
			RequireZeroDrops: true, RequireAuditOK: true,
		},
	},
}

// Names lists the registered scenarios in declaration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, sc := range registry {
		out[i] = sc.Name
	}
	return out
}

// Get returns the named scenario.
func Get(name string) (Scenario, error) {
	for _, sc := range registry {
		if sc.Name == name {
			return sc, nil
		}
	}
	sorted := Names()
	sort.Strings(sorted)
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %s)", name, strings.Join(sorted, ", "))
}

// All returns every registered scenario in declaration order.
func All() []Scenario {
	return append([]Scenario(nil), registry...)
}
