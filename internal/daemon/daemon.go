// Package daemon is the process scaffold of the five Janus daemons (logger,
// listen lines, signals) and the throttle on log lines a request can
// trigger. It links no HTTP code, so library packages use Throttle freely.
package daemon

import (
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/events"
)

// Daemon is one daemon process.
type Daemon struct {
	Name string      // as given to New
	Log  *log.Logger // stderr, each line prefixed with Name
	sig  chan os.Signal
	// A send on up ends the start-up signal loop (starting), once; usr1
	// counts the SIGUSR1s that loop held for Wait.
	up   chan struct{}
	once sync.Once
	usr1 int
}

// New starts the scaffold of the daemon called name. From this call on, a
// signal no longer takes its default action. Until the first Listening line,
// SIGINT and SIGTERM end the process at once with status 0, since nothing
// is served yet that a shutdown would close; from that line on they wait for
// Wait. SIGQUIT and SIGUSR1 act as Wait says throughout (a SIGUSR1 sent
// during start-up promotes once Wait runs).
func New(name string) *Daemon {
	// Room for a few signals sent before Wait; a full channel drops them.
	d := &Daemon{Name: name, sig: make(chan os.Signal, 4), up: make(chan struct{})}
	d.Log = log.New(os.Stderr, name+" ", log.LstdFlags|log.Lmicroseconds)
	signal.Notify(d.sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT, syscall.SIGUSR1)
	go d.starting()
	return d
}

// starting handles signals until the first listener is up.
func (d *Daemon) starting() {
	for {
		select {
		case <-d.up:
			return
		case s := <-d.sig:
			switch s {
			case syscall.SIGQUIT:
				events.Default.WriteTo(os.Stderr, d.Name)
			case syscall.SIGUSR1:
				d.usr1++
			default:
				name := "SIGTERM"
				if s == os.Interrupt {
					name = "SIGINT"
				}
				d.Log.Printf("%s during start-up: exiting", name)
				os.Exit(0)
			}
		}
	}
}

// started ends the start-up signal loop, if New began one, and returns once
// it has ended.
func (d *Daemon) started() {
	d.once.Do(func() {
		if d.up != nil {
			d.up <- struct{}{}
		}
	})
}

// Listening logs "<what> on <scheme>://<addr>", then the detail that format
// and args make: the one form in which every daemon reports a listener it
// bound. The first one ends start-up.
func (d *Daemon) Listening(what, scheme, addr, format string, args ...any) {
	d.started()
	d.Log.Print(strings.TrimSpace(what + " on " + scheme + "://" + addr + " " + fmt.Sprintf(format, args...)))
}

// ListenAddr returns the address that Listening logged for what in out, and
// whether out holds that line.
func ListenAddr(out, what string) (string, bool) {
	_, rest, ok := strings.Cut(out, " "+what+" on ")
	line, _, _ := strings.Cut(rest, "\n")
	_, addr, isURL := strings.Cut(line, "://")
	addr, _, _ = strings.Cut(addr, " ")
	return addr, ok && isURL
}

// Wait handles signals until SIGINT or SIGTERM, then returns so that main
// shuts down. SIGQUIT writes the flight recorder to stderr. The first
// SIGUSR1 calls promote; a later one, or any when promote is nil, is logged
// and ignored.
func (d *Daemon) Wait(promote func()) {
	d.started()
	usr1 := func() {
		if promote == nil {
			d.Log.Print("SIGUSR1 ignored: nothing to promote")
			return
		}
		promote()
		promote = nil
	}
	for range d.usr1 {
		usr1()
	}
	for s := range d.sig {
		switch s {
		case syscall.SIGQUIT:
			events.Default.WriteTo(os.Stderr, d.Name)
		case syscall.SIGUSR1:
			usr1()
		default:
			return
		}
	}
}

// Throttle bounds one call site's log to a line a second, each carrying the
// count of those suppressed since the previous one. The zero value is ready
// for use by any number of goroutines.
type Throttle struct {
	next  atomic.Int64 // earliest Unix nanosecond of the next line
	quiet atomic.Int64 // lines suppressed since the last one written
}

// Printf writes the line to l, or only counts it when this call site wrote
// one less than a second ago.
func (t *Throttle) Printf(l *log.Logger, format string, args ...any) {
	now, next := time.Now().UnixNano(), t.next.Load()
	if now < next || !t.next.CompareAndSwap(next, now+int64(time.Second)) {
		t.quiet.Add(1)
		return
	}
	if n := t.quiet.Swap(0); n > 0 {
		format += fmt.Sprintf(" (%d more not logged)", n)
	}
	l.Printf(format, args...)
}
