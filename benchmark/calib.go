package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// The runner's raw speed moves by up to 2x within a few hundred milliseconds
// and drifts by tens of percent over tens of seconds, so wall-clock numbers
// from two runs of identical code disagree by more than any change worth
// landing. The yardstick that moves *with* the workload is work of the same
// kind: a stdlib-only HTTP round trip on loopback (no Janus code), issued by
// the same number of closed-loop goroutines as the load. Measured work is cut
// into pieces of a few tens of milliseconds with a short burst of stub round
// trips between them; each piece is scaled by refRTT / (mean stub RTT of the
// bursts on either side of it), i.e. reported as if the machine always ran
// the stub at refRTT. An ALU spin loop and best-of-windows were tried as
// yardsticks and do not track the machine.
const (
	refRTT     = 40 * time.Microsecond
	burstCalls = 100 // stub round trips per goroutine per burst (~5 ms)
	loadConns  = 2   // closed-loop client goroutines, ≤ nproc on the runner
)

// calibrator owns the stub server and one http.Client per load goroutine.
type calibrator struct {
	srv     *http.Server
	addr    string // host:port, also a dumb backend for the layer benches
	url     string
	clients []*http.Client
	done    chan struct{}
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("calibration stub: %w", err)
	}
	cb := &calibrator{
		srv: &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = io.WriteString(w, "true") // a failed write surfaces as the client's read error
		})},
		addr: ln.Addr().String(),
		url:  "http://" + ln.Addr().String() + "/qos?key=calibration",
		done: make(chan struct{}),
	}
	for range loadConns {
		cb.clients = append(cb.clients, &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second})
	}
	go func() {
		defer close(cb.done)
		_ = cb.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return cb, nil
}

func (cb *calibrator) close() {
	_ = cb.srv.Close()
	<-cb.done
	for _, c := range cb.clients {
		c.CloseIdleConnections()
	}
}

// stubGet performs one round trip and drains the body so the connection is
// reused.
func stubGet(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

// rtt is the stub's round trip over one burst, in nanoseconds, two ways. What
// disturbs the machine moves the tail of a distribution more than its
// middle, so a median-like metric (check_p50) follows the bursts' median and
// a mean-like one (elapsed time, hence throughput; p99, which lives in the
// tail) follows their mean; scaled by the wrong one, either spreads two to
// three times wider between runs.
type rtt struct{ mean, median float64 }

func (a rtt) avg(b rtt) rtt { return rtt{(a.mean + b.mean) / 2, (a.median + b.median) / 2} }

// burst has every load goroutine hit the stub burstCalls times at once and
// averages their mean and their median round trip.
func (cb *calibrator) burst() (rtt, error) {
	var wg sync.WaitGroup
	each := make([]rtt, len(cb.clients))
	errs := make([]error, len(cb.clients))
	for i, c := range cb.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calls := make([]float64, burstCalls)
			begin := time.Now()
			for n := range calls {
				start := time.Now()
				if errs[i] = stubGet(c, cb.url); errs[i] != nil {
					return
				}
				calls[n] = float64(time.Since(start))
			}
			each[i] = rtt{float64(time.Since(begin)) / burstCalls, median(calls)}
		}()
	}
	wg.Wait()
	var sum rtt
	for i, r := range each {
		if errs[i] != nil {
			return rtt{}, fmt.Errorf("calibration burst: %w", errs[i])
		}
		sum.mean += r.mean / float64(len(each))
		sum.median += r.median / float64(len(each))
	}
	return sum, nil
}

// piece is one stretch of measured work between two bursts.
type piece struct {
	elapsed float64 // seconds, as measured
	// k and kMedian turn a duration measured in this piece into a
	// calibrated one: refRTT over the mean, or median, stub RTT of the
	// bursts around it. Throughputs divide by k. Zero until the closing
	// burst.
	k, kMedian float64
	lo, hi     int // its latency samples in the owner's buffer, if any
}

// stopwatch accumulates pieces and calibrates each with the burst before it
// and the burst after it.
type stopwatch struct {
	cal    *calibrator
	pieces []piece
	open   int   // pieces[open:] await their closing burst
	bursts []rtt // the last one opens the next piece
}

func newStopwatch(cal *calibrator) (*stopwatch, error) {
	b, err := cal.burst()
	if err != nil {
		return nil, err
	}
	return &stopwatch{cal: cal, bursts: []rtt{b}}, nil
}

func (sw *stopwatch) add(p piece) { sw.pieces = append(sw.pieces, p) }

// burst closes every open piece.
func (sw *stopwatch) burst() error {
	b, err := sw.cal.burst()
	if err != nil {
		return err
	}
	around := sw.bursts[len(sw.bursts)-1].avg(b)
	for i := sw.open; i < len(sw.pieces); i++ {
		sw.pieces[i].k, sw.pieces[i].kMedian = float64(refRTT)/around.mean, float64(refRTT)/around.median
	}
	sw.open = len(sw.pieces)
	sw.bursts = append(sw.bursts, b)
	return nil
}

// time measures f as one piece and closes it.
func (sw *stopwatch) time(f func() error) error {
	start := time.Now()
	if err := f(); err != nil {
		return err
	}
	sw.add(piece{elapsed: time.Since(start).Seconds()})
	return sw.burst()
}

// since is the calibrated seconds of the pieces from index first on.
func (sw *stopwatch) since(first int) (cal float64) {
	for _, p := range sw.pieces[first:] {
		cal += p.elapsed * p.k
	}
	return cal
}

// rtts is the mean stub RTT each piece from index first on was calibrated
// with.
func (sw *stopwatch) rtts(first int) []float64 {
	var out []float64
	for _, p := range sw.pieces[first:] {
		out = append(out, float64(refRTT)/p.k)
	}
	return out
}
