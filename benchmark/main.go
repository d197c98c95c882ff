// Command benchmark measures what a qos_check costs a client of the real
// in-process Janus stack, and where the time goes.
//
//	go run ./benchmark                      # every workload: end-to-end, ledger, waterfall
//	go run ./benchmark -workload dns-miss   # one workload, end-to-end metrics
//	go run ./benchmark -workload dns-miss -trace 1   # its per-layer ledger
//	go run ./benchmark -layers              # the isolated per-layer phase alone
//	go run ./benchmark -selfcheck           # two sets of runs, compared to the bounds
//
// See README.md in this directory for the method.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// options is one invocation's sizing.
type options struct {
	seed     int64
	seconds  int
	windows  int // timed windows of an end-to-end run
	ops      int // checks per client per window; 0 = the workload's size scaled by seconds
	setups   int // set-ups per run; setup_s is their median
	resident int // rules seeded for the resident workloads
	traceOut string
}

// tracedWindows is how many windows each half (untraced, traced) of a
// -trace 1 run gets, unless -windows asks for fewer.
const tracedWindows = 4

func (o options) opsFor(w *workload) int {
	if o.ops > 0 {
		return o.ops
	}
	return max(w.opsAt20*o.seconds/20, 1)
}

// result is the line the driver reads.
type result struct {
	Correct   bool            `json:"correct"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Metrics   map[string]mval `json:"metrics"`
}

func main() {
	var o options
	workloadName := flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for key draws and first-sight key names")
	flag.IntVar(&o.seconds, "seconds", 20, "size of a run: operation counts are scaled so the reference runner measures for about this long")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger (isolated phase, counters, traced waterfall)")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the span buffer to this file as JSON (the suite prefixes the file name with the workload)")
	flag.IntVar(&o.windows, "windows", defaultWindows, "timed windows per end-to-end run")
	flag.IntVar(&o.ops, "ops", 0, "checks per client per window (default: the workload's size scaled by -seconds)")
	flag.IntVar(&o.setups, "setups", 3, "set-ups per end-to-end run; setup_s is their median")
	flag.IntVar(&o.resident, "resident", defaultResident, "rules seeded for the resident workloads (dns-sync reads the first 90 % and edits the rest)")
	layersOnly := flag.Bool("layers", false, "run only the isolated per-layer phase")
	selfcheck := flag.Bool("selfcheck", false, "run two sets of -repeat runs per workload (all, or the one -workload names) and compare their medians to the bounds")
	repeat := flag.Int("repeat", 5, "runs per set for -selfcheck")
	flag.Parse()

	if o.seconds < 1 || o.windows < 1 || o.setups < 1 || o.ops < 0 || o.resident < 100 || *repeat < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds, -windows, -setups and -repeat must be at least 1, -resident at least 100, and there are no positional arguments")
		os.Exit(2)
	}
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(o, *repeat, *workloadName)
	case *layersOnly:
		err = runLayersOnly(o)
	case *workloadName != "":
		err = runOne(*workloadName, o, *traced != 0)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailedChecks makes a run with wrong or lost answers exit non-zero
// after its result has been printed.
var errFailedChecks = errors.New("checks failed verification")

// runOne measures one workload in this process and prints the result line.
func runOne(name string, o options, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	// One P: the whole pipeline becomes a CPU-path-length measurement. With
	// two Ps on a 2-vCPU box cross-core wake-ups dominate and do not
	// calibrate out.
	runtime.GOMAXPROCS(1)
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()

	var values map[string]float64
	var attempted, failed int64
	defs := endToEnd
	if traced {
		defs = perLayer
		values, attempted, failed, err = runLedger(w, o, cal)
	} else {
		values, attempted, failed, err = runEndToEnd(w, o, cal)
	}
	if err != nil {
		return err
	}
	picked, missing := pick(defs, values)
	if len(missing) > 0 {
		return fmt.Errorf("%s produced no value for %s", name, strings.Join(missing, ", "))
	}
	for _, d := range defs {
		fmt.Printf("%-14s %-34s %14.4f %s\n", name, d.Name, picked[d.Name].Value, d.Unit)
	}
	if !traced {
		// The ledger entries an untraced run measures anyway (raw twins,
		// counters, runtime) are shown but stay out of the result line.
		for _, d := range perLayer {
			if v, ok := values[d.Name]; ok {
				fmt.Printf("%-14s %-34s %14.4f %s\n", name, d.Name, v, d.Unit)
			}
		}
	}
	meta, err := json.Marshal(runnerMeta(w, o, values))
	if err != nil {
		return err
	}
	fmt.Printf("# runner %s\n", meta)
	line, err := json.Marshal(result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: picked})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d: %w", name, failed, attempted, errFailedChecks)
	}
	return nil
}

// runnerMeta is written beside every result: numbers from another machine
// or commit are not comparable, calibrated or not.
func runnerMeta(w *workload, o options, values map[string]float64) map[string]any {
	// `go build` stamps the revision; `go run` does not, so ask git, which
	// is absent in the driver's checkout.
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"workload": w.name, "seed": o.seed, "seconds": o.seconds, "windows": o.windows, "ops_per_client_per_window": o.opsFor(w), "resident": o.resident,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commit, "kernel": kernel, "calib.http_rtt_us": values["calib.http_rtt_us"],
	}
}

// runEndToEnd is a -trace 0 run: o.setups set-ups (the last one is kept),
// then o.windows timed windows with tracing off.
func runEndToEnd(w *workload, o options, cal *calibrator) (map[string]float64, int64, int64, error) {
	ops := o.opsFor(w)
	sw, err := newStopwatch(cal)
	if err != nil {
		return nil, 0, 0, err
	}
	var e *env
	var setups []float64
	var attempted, failed int64
	for range o.setups {
		if e != nil {
			a, f := e.tally()
			attempted, failed = attempted+a, failed+f
			e.close()
			// Drop the discarded deployment now, so that when its garbage
			// goes does not depend on where the GC cycle happens to be.
			runtime.GC()
		}
		first := len(sw.pieces)
		if e, err = setup(w, o, sw); err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, sw.since(first))
	}
	defer e.close()

	values := map[string]float64{"setup_s": median(setups)}
	ph, err := e.untraced(sw, o.windows, ops, time.Now().Add(wallCap), values)
	if err != nil {
		return nil, 0, 0, err
	}
	values["throughput_cal_rps"] = ph.thrCal
	values["check_p50_cal_us"] = ph.p50Cal
	values["check_p99_cal_us"] = ph.p99Cal
	values["allocs_per_check"] = ph.allocs
	values["alloc_bytes_per_check"] = ph.bytes
	a, f := e.tally()
	attempted, failed = attempted+a, failed+f
	if !w.resident {
		a, f = e.recheck()
		attempted, failed = attempted+a, failed+f
	}
	values["failed_frac"] = float64(failed) / float64(attempted)
	values["ok_frac"] = 1 - values["failed_frac"]
	if values["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, 0, 0, err
	}
	return values, attempted, failed, nil
}

// recheck asks again for a sample of the first-sight keys already admitted:
// capacity 1, no refill, so each must now be denied. It runs after the
// timed windows and only adds to attempted/failed.
func (e *env) recheck() (attempted, failed int64) {
	for _, l := range e.loaders {
		for n := 0; n < l.spray; n += 100 {
			got, err := l.check(sprayKey(e.seed, l.id, n))
			attempted++
			if err != nil || got {
				failed++
			}
		}
	}
	return attempted, failed
}

// untraced runs n windows with tracing off and files the ledger entries any
// such phase yields besides its timings: raw twins, work per check from the
// packages' Stats(), and the Go runtime's view.
func (e *env) untraced(sw *stopwatch, n, ops int, deadline time.Time, values map[string]float64) (phase, error) {
	var from, to runtime.MemStats
	runtime.ReadMemStats(&from)
	before := e.counters()
	ph, err := e.measure(sw, n, ops, deadline)
	if err != nil {
		return ph, err
	}
	runtime.ReadMemStats(&to)
	ph.raw(values)
	perCheck(values, before, e.counters(), ph.checks)
	values["runtime.gc_cycles"] = float64(to.NumGC - from.NumGC)
	values["runtime.gc_pause_ms"] = float64(to.PauseTotalNs-from.PauseTotalNs) / 1e6
	values["runtime.heap_inuse_mb"] = float64(to.HeapInuse) / (1 << 20)
	values["runtime.goroutines"] = float64(runtime.NumGoroutine())
	return ph, nil
}

// peakRSSMB is VmHWM of this process.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// runLedger is a -trace 1 run: the isolated layer phase, then one set-up,
// tracedWindows untraced windows (raw twins, counters, the p50 that tracing
// is compared against) and tracedWindows windows with every request traced.
func runLedger(w *workload, o options, cal *calibrator) (map[string]float64, int64, int64, error) {
	values, err := runLayers(cal, o.seconds)
	if err != nil {
		return nil, 0, 0, err
	}
	ops := o.opsFor(w)
	sw, err := newStopwatch(cal)
	if err != nil {
		return nil, 0, 0, err
	}
	e, err := setup(w, o, sw)
	if err != nil {
		return nil, 0, 0, err
	}
	defer e.close()
	deadline := time.Now().Add(wallCap)

	plain, err := e.untraced(sw, min(tracedWindows, o.windows), ops, deadline, values)
	if err != nil {
		return nil, 0, 0, err
	}

	// The edge tier samples: the LB in gateway mode (it hands the ID to the
	// router), the router itself when clients call it directly.
	edge := e.c.Routers[0].Tracer()
	if e.c.LB != nil {
		edge = e.c.LB.Tracer()
	}
	for _, p := range e.c.QoS {
		p.Master.SojournTotal().Reset()
	}
	edge.SetRate(1)
	e.tr = newCollector(edge)
	tracedPh, err := e.measure(sw, min(tracedWindows, o.windows), ops, deadline)
	if err != nil {
		return nil, 0, 0, err
	}
	edge.SetRate(0)
	e.tr.drain()

	var clients [][]clientSpan
	var all []float64
	for _, l := range e.loaders {
		clients = append(clients, l.spans)
		for _, s := range l.spans {
			all = append(all, float64(s.end-s.start))
		}
	}
	spans, joined := join(clients, e.tr.traces)
	sojourn := metrics.NewHistogram()
	for _, p := range e.c.QoS {
		sojourn.Merge(p.Master.SojournTotal())
	}
	waterfall(values, spans, joined, float64(refRTT)/median(tracedPh.rtts), median(all), sojourn)
	values["trace.overhead_frac"] = tracedPh.p50Cal/plain.p50Cal - 1
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, spans); err != nil {
			return nil, 0, 0, err
		}
	}
	attempted, failed := e.tally()
	values["failed_frac"] = float64(failed) / float64(attempted)
	return values, attempted, failed, nil
}

// runLayersOnly prints the isolated phase.
func runLayersOnly(o options) error {
	runtime.GOMAXPROCS(1)
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	defer cal.close()
	values, err := runLayers(cal, o.seconds)
	if err != nil {
		return err
	}
	for _, d := range perLayer {
		if v, ok := values[d.Name]; ok {
			fmt.Printf("%-34s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	return nil
}

// child runs one workload in a process of its own, so that GOMAXPROCS,
// heap, peak RSS and allocation counters belong to that workload alone. It
// returns the result line and every "<workload> <metric> <value> <unit>" line
// printed above it (a -trace 0 run shows raw twins and counters there).
func child(name string, o options, traced int, extra ...string) (result, map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	args := append([]string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(traced), "-windows", strconv.Itoa(o.windows), "-ops", strconv.Itoa(o.ops),
		"-setups", strconv.Itoa(o.setups), "-resident", strconv.Itoa(o.resident)}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		if runErr != nil {
			return result{}, nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return result{}, nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	shown := map[string]float64{}
	for _, line := range lines {
		if f := strings.Fields(line); len(f) == 4 && f[0] == name {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				shown[f[1]] = v
			}
		}
	}
	// A child that printed a result and then exited 1 had failed checks;
	// the result says so, and the caller decides.
	return r, shown, nil
}

// runSuite runs every workload twice (end-to-end, then ledger) and prints
// every metric by name with its unit.
func runSuite(o options) error {
	bad := 0
	for i := range workloads {
		w := &workloads[i]
		fmt.Printf("## %s — %s\n", w.name, w.why)
		for traced, defs := range [][]metricDef{endToEnd, perLayer} {
			var extra []string
			if traced == 1 && o.traceOut != "" {
				extra = []string{"-trace-out", filepath.Join(filepath.Dir(o.traceOut), w.name+"."+filepath.Base(o.traceOut))}
			}
			r, _, err := child(w.name, o, traced, extra...)
			if err != nil {
				return err
			}
			for _, d := range defs {
				bound := ""
				if d.Bound > 0 {
					bound = fmt.Sprintf("  (%s is better, bound %g)", d.Better, d.Bound)
				}
				fmt.Printf("%-14s %-34s %14.4f %s%s\n", w.name, d.Name, r.Metrics[d.Name].Value, d.Unit, bound)
			}
			if !r.Correct {
				bad++
				fmt.Printf("%-14s FAILED %d of %d checks\n", w.name, r.Failed, r.Attempted)
			}
		}
	}
	if bad > 0 {
		return errFailedChecks
	}
	return nil
}
