package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestFig6MatchesPaperFormula pins Fig 6's partitioning to the paper's
// formula: seed = CRC32(key); n = mod(seed, N).
func TestFig6MatchesPaperFormula(t *testing.T) {
	if got := paperPartition("hello", 7); got != int(uint32(0x3610a686)%7) {
		t.Fatalf("paperPartition(hello, 7) = %d", got)
	}
}

// TestRealPathFigures gates the real-path half of the reproduction: each
// figure runs through its one definition, which builds the loopback stack
// (Fig 13 through the photo app) and returns an error unless the paper's
// shape holds. Sizes are short; the known IP's bucket is 40 credits instead
// of 1000 so its clamp is reached after ≈ 1.3 s instead of ≈ 33 s.
func TestRealPathFigures(t *testing.T) {
	t.Run("fig13a", func(t *testing.T) {
		t.Parallel()
		res, err := Fig13a(Fig13aSize{Duration: 6 * time.Second, KnownCapacity: 40, Seed: 1})
		if err != nil {
			t.Fatalf("%v\nknown %+v\nunknown %+v", err, res.Known, res.Unknown)
		}
	})
	t.Run("fig5", func(t *testing.T) {
		t.Parallel()
		if _, err := Fig5(Fig5Size{Requests: 2000, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("fig6", func(t *testing.T) {
		t.Parallel()
		res, err := Fig6(Fig6Size{Keys: 50_000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Populations) != 4 {
			t.Fatalf("populations = %d, want the paper's 4", len(res.Populations))
		}
	})
	t.Run("fig13b", func(t *testing.T) {
		t.Parallel()
		res, err := Fig13b(Fig13bSize{Requests: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if res.NoQoS.Count() != 1000 || res.Refill100.Count() == 0 || res.Refill10.Count() == 0 {
			t.Fatalf("samples: NoQoS %d, Refill100 %d, Refill10 %d",
				res.NoQoS.Count(), res.Refill100.Count(), res.Refill10.Count())
		}
	})
}

func hist(d time.Duration) *metrics.Histogram {
	h := metrics.NewHistogram()
	h.RecordDuration(d)
	return h
}

func flat(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestShapeChecksReject feeds each figure's shape check a hand-built result
// that does not have the paper's shape; janus-bench exits non-zero on these
// errors.
func TestShapeChecksReject(t *testing.T) {
	// A known-IP trace with the paper's shape, and ways to lose it.
	good := RateTrace{
		Refill:   100,
		Accepted: append(flat(3, 130), flat(7, 100)...),
		Rejected: append(flat(3, 0), flat(7, 30)...),
	}
	unknown := RateTrace{
		Refill:   10,
		Accepted: append([]float64{110}, flat(9, 10)...),
		Rejected: append([]float64{20}, flat(9, 120)...),
	}
	if err := (Fig13aResult{Known: good, Unknown: unknown}).check(); err != nil {
		t.Fatalf("paper-shaped traces rejected: %v", err)
	}
	neverClamps := RateTrace{Refill: 100, Accepted: flat(10, 130), Rejected: flat(10, 0)}
	noBurst := RateTrace{Refill: 100, Accepted: flat(10, 100), Rejected: flat(10, 30)}
	offRate := RateTrace{Refill: 10, Accepted: append([]float64{110}, flat(9, 20)...), Rejected: flat(10, 110)}
	short := RateTrace{Refill: 100, Accepted: flat(5, 130), Rejected: flat(5, 0)}

	uniform := Pressure{Population: "UUID", MinPct: 4.9, MaxPct: 5.1}
	for _, tc := range []struct {
		name  string
		check func() error
		want  string
	}{
		{"fig5 gateway faster than DNS",
			Fig5Result{DNS: hist(300 * time.Microsecond), Gateway: hist(200 * time.Microsecond)}.check,
			"not slower than DNS"},
		{"fig6 one population at 6%",
			Fig6Result{Populations: []Pressure{uniform, {Population: "TimeStamp", MinPct: 4.0, MaxPct: 6.0}}}.check,
			"TimeStamp pressure outside"},
		{"fig13a never clamps", Fig13aResult{Known: neverClamps, Unknown: unknown}.check, "never clamps"},
		{"fig13a no burst", Fig13aResult{Known: noBurst, Unknown: unknown}.check, "no burst"},
		{"fig13a steady rate off the refill rate", Fig13aResult{Known: good, Unknown: offRate}.check, "within 35%"},
		{"fig13a too short", Fig13aResult{Known: short, Unknown: unknown}.check, "too short"},
		{"fig13b rejected slower than accepted",
			Fig13bResult{Refill100: hist(time.Millisecond), Rejected: hist(2 * time.Millisecond)}.check,
			"not faster than accepted"},
		{"fig13b nothing rejected",
			Fig13bResult{Refill100: hist(time.Millisecond), Rejected: metrics.NewHistogram()}.check,
			"no rejected requests"},
	} {
		err := tc.check()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
