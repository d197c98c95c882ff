// Package tick runs the product's periodic background jobs: the QoS
// server's rule sync, checkpoint and audit passes, the HA slave's pulls,
// the membership heartbeat, view poll and expiry monitor, and the DNS
// failover health check. Each is a Loop from Every.
package tick

import (
	"sync"
	"time"
)

// Loop calls a function on a fixed period, on a goroutine of its own, until
// Stop.
type Loop struct {
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// Every starts a Loop that calls fn every d, the first call one period from
// now. d must be positive. Calls never overlap: a tick that comes due while
// fn runs is taken after it returns, and further ticks are dropped.
func Every(d time.Duration, fn func()) *Loop {
	l := &Loop{stop: make(chan struct{}), done: make(chan struct{})}
	go l.run(d, fn)
	return l
}

func (l *Loop) run(d time.Duration, fn func()) {
	defer close(l.done)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			// select picks at random among ready cases, so a tick that was
			// ready when Stop came in could still win it.
			select {
			case <-l.stop:
				return
			default:
			}
			fn()
		}
	}
}

// Stop ends the loop: once it is called no further call of fn begins, and
// it returns after a call already under way has returned and the loop's
// goroutine is done. Stop may be called more than once, from several
// goroutines, and on a nil *Loop, which stands for a loop that never
// started. Called from fn, it deadlocks.
func (l *Loop) Stop() {
	if l == nil {
		return
	}
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}
