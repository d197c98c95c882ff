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
}

// New starts the scaffold of the daemon called name. From this call on, a
// signal waits for Wait instead of taking its default action.
func New(name string) *Daemon {
	// Room for a few signals sent during start-up; a full channel drops them.
	d := &Daemon{Name: name, sig: make(chan os.Signal, 4)}
	d.Log = log.New(os.Stderr, name+" ", log.LstdFlags|log.Lmicroseconds)
	signal.Notify(d.sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT, syscall.SIGUSR1)
	return d
}

// Listening logs "<what> on <scheme>://<addr>", then the detail that format
// and args make: the one form in which every daemon reports a listener it
// bound.
func (d *Daemon) Listening(what, scheme, addr, format string, args ...any) {
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
	for s := range d.sig {
		switch {
		case s == syscall.SIGQUIT:
			events.Default.WriteTo(os.Stderr, d.Name)
		case s == syscall.SIGUSR1 && promote == nil:
			d.Log.Print("SIGUSR1 ignored: nothing to promote")
		case s == syscall.SIGUSR1:
			promote()
			promote = nil
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
