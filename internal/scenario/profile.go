package scenario

import (
	"math"
	"time"
)

// RateProfile maps elapsed run time to an instantaneous arrival rate in
// requests per second — the loadgen.OpenLoopConfig.RateFunc and
// cloudsim.RunConfig.Rate shape, shared verbatim between the DES tier's
// open-loop pump and the real-tier pacer.
type RateProfile func(elapsed time.Duration) float64

// Steady holds a constant rate.
func Steady(rate float64) RateProfile {
	return func(time.Duration) float64 { return rate }
}

// diurnal oscillates base ± amplitude sinusoidally with the given period,
// starting at the trough so a run always opens under light load and climbs
// into its first peak.
func diurnal(base, amplitude float64, period time.Duration) RateProfile {
	return func(elapsed time.Duration) float64 {
		phase := 2*math.Pi*float64(elapsed)/float64(period) - math.Pi/2
		r := base + amplitude*math.Sin(phase)
		if r < 0 {
			return 0
		}
		return r
	}
}

// flashCrowd holds base until at, ramps linearly to base*mult within ramp
// (the 10×-in-≤1s step), holds the peak for hold, then settles at after —
// lower than base, so the post-crowd lull drives scale-in.
func flashCrowd(base, after, mult float64, at, ramp, hold time.Duration) RateProfile {
	peak := base * mult
	return func(elapsed time.Duration) float64 {
		switch {
		case elapsed < at:
			return base
		case elapsed < at+ramp:
			f := float64(elapsed-at) / float64(ramp)
			return base + (peak-base)*f
		case elapsed < at+ramp+hold:
			return peak
		default:
			return after
		}
	}
}
