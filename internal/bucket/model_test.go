package bucket

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"time"
)

// model is the paper's eq. 1–2 in exact arithmetic, the reference the
// bucket is checked against: credit holds at instant last, refills at r per
// ns and is clamped to C when read. It goes negative only after the clock
// stepped back, and below −C it re-anchors at 0, as the bucket does.
type model struct {
	capF         float64
	c, r         *big.Rat
	credit, last *big.Rat
}

func rat(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }

func ratInt(n int64) *big.Rat { return new(big.Rat).SetInt64(n) }

func (m *model) reset(rule Rule, t int64) {
	m.capF, m.c = rule.Capacity, rat(rule.Capacity)
	m.r = new(big.Rat).Quo(rat(rule.RefillRate), ratInt(1e9))
	m.set(rule.Credit, t)
}

func (m *model) set(credit float64, t int64) {
	m.credit, m.last = rat(min(max(credit, 0), m.capF)), ratInt(t)
}

// at is the credit at t, unclamped below. A bucket found full is re-anchored
// at the instant it filled, which is what a later step back counts from.
func (m *model) at(t int64) *big.Rat {
	dt := new(big.Rat).Sub(ratInt(t), m.last)
	x := new(big.Rat).Add(m.credit, dt.Mul(dt, m.r))
	if x.Cmp(m.c) >= 0 && m.r.Sign() > 0 {
		fill := new(big.Rat).Sub(m.c, m.credit)
		m.last.Add(m.last, fill.Quo(fill, m.r))
		m.credit.Set(m.c)
		return new(big.Rat).Set(m.c)
	}
	if x.Cmp(new(big.Rat).Neg(m.c)) < 0 {
		m.set(0, t)
		return new(big.Rat)
	}
	return x
}

func (m *model) consume(n float64, t int64) bool {
	x := m.at(t)
	if x.Cmp(rat(n)) < 0 {
		return false
	}
	m.credit, m.last = x.Sub(x, rat(n)), ratInt(t)
	return true
}

func (m *model) merge(credit float64, t int64) {
	if x := m.at(t); rat(credit).Cmp(x) < 0 {
		m.set(credit, t)
	}
}

// value is the credit a reader sees at t.
func (m *model) value(t int64) *big.Rat {
	x := m.at(t)
	if x.Sign() < 0 {
		return new(big.Rat)
	}
	return x
}

// traceCoverage counts what the generated traces exercised.
type traceCoverage struct{ rate0, cap0, bigCost, fast, back, reset, set, merge, boundary int }

var (
	rates      = []float64{0, 0.2, 1, 2, 3, 7.5, 20, 50, 1e3, 1e6, 1e9, 1e12}
	capacities = []float64{0, 1, 2.5, 10, 100, 1000, 1e6, 1e12}
	costs      = []float64{1, 1, 1, 2, 3, 0.5, 0.1, 1.0 / 3, 7}
)

func genRule(rng *rand.Rand) Rule {
	r := rates[rng.Intn(len(rates))]
	if rng.Intn(4) == 0 {
		r = math.Pow(10, rng.Float64()*12) // 1 to 1e12 per second
	}
	c := capacities[rng.Intn(len(capacities))]
	if rng.Intn(4) == 0 {
		c = math.Round(rng.Float64()*1e4) / 8
	}
	if r > 0 && c/r > 1e6 {
		c = r * 1e6 // keep n/r under ~1e15 ns, where the round-up is one ns
	}
	credit := c
	if rng.Intn(3) == 0 {
		credit = c * rng.Float64()
	}
	return Rule{Key: "k", RefillRate: r, Capacity: c, Credit: credit}
}

// runTrace drives one generated trace through a bucket and the model and
// fails t on any disagreement the bucket's rounding does not explain.
func runTrace(t *testing.T, rng *rand.Rand, cov *traceCoverage) {
	rule := genRule(rng)
	now := int64(0)
	b, m := New(rule, t0), new(model)
	m.reset(rule, now)
	// ups counts the roundings since an admission on a full bucket: each
	// can withhold r·1 ns of credit in the TAT form, or an ulp in the
	// credit word.
	ups := btoi(rule.Credit != rule.Capacity)
	tol := func() *big.Rat {
		ulp := math.Nextafter(b.Capacity(), math.Inf(1)) - b.Capacity()
		return rat(float64(ups) * (b.RefillRate()*1e-9*(1+1e-9) + 2*ulp))
	}
	cov.rate0 += btoi(rule.RefillRate == 0)
	cov.cap0 += btoi(rule.Capacity == 0)
	cov.fast += btoi(rule.RefillRate >= 1e12)
	for i := 0; i < 300; i++ {
		r, c := b.RefillRate(), b.Capacity()
		tau := 0.0
		if r > 0 {
			tau = c / r * 1e9
		}
		switch k := rng.Intn(20); {
		case k < 11:
			n := costs[rng.Intn(len(costs))]
			if rng.Intn(10) == 0 {
				n = c + 1 + rng.Float64()*c
			}
			cov.bigCost += btoi(n > 1)
			at := t0.Add(time.Duration(now))
			full := b.Credit(at) == c
			got, want := b.TryConsume(n, at), m.consume(n, now)
			if got && !want {
				t.Fatalf("step %d %+v: bucket admitted cost %v at %d ns, the model denies (credit %v)", i, rule, n, now, m.value(now).FloatString(12))
			}
			if !got && want {
				// The model admitted: undo that and check the gap is rounding.
				m.credit.Add(m.credit, rat(n))
				gap := new(big.Rat).Sub(m.value(now), rat(n))
				if gap.Cmp(tol()) > 0 {
					t.Fatalf("step %d %+v: bucket denied cost %v at %d ns with model credit %v, %d roundings allow %v",
						i, rule, n, now, m.value(now).FloatString(12), ups, tol().FloatString(15))
				}
				cov.boundary++
			}
			switch {
			case got && full:
				ups = 1 // TAT moved from now, as the model's did: only this rounding is left
			case got:
				ups++
			}
		case k < 15:
			dt := int64(0)
			switch rng.Intn(4) {
			case 0:
				dt = 1
			case 1:
				if r > 0 {
					dt = int64(math.Ceil(1e9 / r)) // one credit's worth, a boundary for whole-ns rates
				}
			case 2:
				dt = int64(rng.Float64() * tau)
			case 3:
				dt = int64(rng.Float64() * 2 * tau)
			}
			now += dt
		case k == 15:
			// A step back, clear of the re-anchor threshold at 2·C/r.
			cov.back++
			if rng.Intn(2) == 0 || r == 0 {
				now -= int64(rng.Float64() * tau / 2)
				break
			}
			// Far enough behind the model's TAT to re-anchor both.
			tat := new(big.Rat).Sub(m.c, m.credit)
			tat.Add(tat.Quo(tat, m.r), m.last)
			f, _ := tat.Float64()
			now = min(now, int64(f)) - int64(3*tau) - 10 - rng.Int63n(1e9)
			ups++ // the re-anchor rounds C/r up
		case k == 16:
			cov.reset++
			rule = genRule(rng)
			b.Reset(rule, t0.Add(time.Duration(now)))
			m.reset(rule, now)
			ups = btoi(rule.Credit != rule.Capacity)
		case k == 17:
			cov.set++
			x := c * rng.Float64()
			b.SetCredit(x, t0.Add(time.Duration(now)))
			m.set(x, now)
			ups = 1
		default:
			cov.merge++
			x := c * rng.Float64() * 1.2
			b.MinCredit(x, t0.Add(time.Duration(now)))
			m.merge(x, now)
			ups++
		}
		got, want := rat(b.Credit(t0.Add(time.Duration(now)))), m.value(now)
		if got.Cmp(want) > 0 {
			t.Fatalf("step %d %+v: bucket credit %v above the model's %v at %d ns", i, rule, got.FloatString(15), want.FloatString(15), now)
		}
		if slack := new(big.Rat).Sub(want, got); slack.Cmp(new(big.Rat).Add(tol(), rat(4*ulpOf(c)))) > 0 {
			t.Fatalf("step %d %+v: bucket credit %v below the model's %v by more than %d roundings", i, rule, got.FloatString(15), want.FloatString(15), ups)
		}
	}
}

func ulpOf(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBucketMatchesModel checks the bucket against the exact model over
// generated traces: rates 0 to 1e12, capacity 0, costs above 1 and above C,
// whole-ns boundaries, steps back, and Reset, SetCredit and min-merge
// mid-trace. The bucket never admits what the model denies, and denies what
// the model admits only by its rounding.
func TestBucketMatchesModel(t *testing.T) {
	var cov traceCoverage
	for seed := int64(1); seed <= 400; seed++ {
		runTrace(t, rand.New(rand.NewSource(seed)), &cov)
	}
	t.Logf("coverage %+v", cov)
	for name, n := range map[string]int{"r = 0": cov.rate0, "C = 0": cov.cap0, "cost > 1": cov.bigCost,
		"r ≥ 1e12": cov.fast, "step back": cov.back, "Reset": cov.reset, "SetCredit": cov.set, "merge": cov.merge} {
		if n == 0 {
			t.Errorf("no trace exercised %s", name)
		}
	}
}

// FuzzBucketMatchesModel is TestBucketMatchesModel on traces seeded by the
// fuzzer's bytes.
func FuzzBucketMatchesModel(f *testing.F) {
	for _, s := range []string{"", "janus", "\x00\x01\x02\x03"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		seed := int64(binary.LittleEndian.Uint64(h.Sum(nil)))
		runTrace(t, rand.New(rand.NewSource(seed)), new(traceCoverage))
	})
}
