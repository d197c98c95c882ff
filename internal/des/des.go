// Package des is a deterministic discrete-event simulation engine used to
// model the full Janus deployment at AWS scale in virtual time (see
// internal/cloudsim). It provides an event calendar ordered by (time,
// scheduling sequence), multi-server FIFO service stations with busy-time
// accounting, and seeded random variates — everything needed to simulate
// hundreds of thousands of requests per (virtual) second in a few real
// milliseconds.
//
// The calendar is a binary heap of pointer-free entries. An event names a
// Handler registered once and carries one int argument, so a model that
// keeps its per-request state in a slice schedules and completes requests
// without allocating.
package des

import (
	"math"
	"math/rand"
	"time"
)

// Time is virtual simulation time in nanoseconds since simulation start.
type Time int64

// Seconds converts virtual time to seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// FromSeconds converts seconds to virtual time.
func FromSeconds(s float64) Time { return Time(s * float64(time.Second)) }

// FromDuration converts a wall-clock duration to virtual time.
func FromDuration(d time.Duration) Time { return Time(d) }

// Handler names an event callback registered with Engine.Handle.
type Handler int32

// callSlot is the handler that runs At's callbacks.
const callSlot Handler = 0

// event holds no pointers, so the heap's moves are plain copies.
type event struct {
	at  Time
	seq uint64 // tie-breaker: events at one instant run in scheduling order
	h   Handler
	arg int32
}

func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Engine is the event calendar. It is strictly single-threaded: all event
// functions run sequentially in virtual-time order.
type Engine struct {
	now      Time
	seq      uint64
	events   []event // binary min-heap on (at, seq)
	handlers []func(arg int)
	calls    []func() // At's pending callbacks, by slot
	free     []int    // empty slots of calls
	rng      *rand.Rand
}

// NewEngine returns an engine with a seeded random source.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed))}
	e.handlers = []func(int){e.call}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Handle registers fn and returns the Handler that names it in Post.
func (e *Engine) Handle(fn func(arg int)) Handler {
	e.handlers = append(e.handlers, fn)
	return Handler(len(e.handlers) - 1)
}

// Post schedules handler h with argument arg (which must fit in an int32)
// at absolute virtual time t, clamped to now.
func (e *Engine) Post(t Time, h Handler, arg int) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, h: h, arg: int32(arg)})
	hp, i := e.events, len(e.events)-1
	ev := hp[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&hp[p]) {
			break
		}
		hp[i], i = hp[p], p
	}
	hp[i] = ev
}

// PostAfter schedules handler h with argument arg d after the current time.
func (e *Engine) PostAfter(d Time, h Handler, arg int) { e.Post(e.now+d, h, arg) }

// At schedules fn at absolute virtual time t (clamped to now).
func (e *Engine) At(t Time, fn func()) {
	slot := len(e.calls)
	if n := len(e.free); n > 0 {
		slot, e.free = e.free[n-1], e.free[:n-1]
		e.calls[slot] = fn
	} else {
		e.calls = append(e.calls, fn)
	}
	e.Post(t, callSlot, slot)
}

// After schedules fn d after the current time.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

func (e *Engine) call(slot int) {
	fn := e.calls[slot]
	e.calls[slot] = nil
	e.free = append(e.free, slot)
	fn()
}

func (e *Engine) pop() event {
	hp, top := e.events, e.events[0]
	n := len(hp) - 1
	last, i := hp[n], 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && hp[c+1].before(&hp[c]) {
			c++
		}
		if !hp[c].before(&last) {
			break
		}
		hp[i], i = hp[c], c
	}
	hp[i] = last
	e.events = hp[:n]
	return top
}

// Run executes events in order until the calendar is empty or virtual time
// reaches until. It returns the number of events executed.
func (e *Engine) Run(until Time) int {
	n := 0
	for len(e.events) > 0 && e.events[0].at <= until {
		ev := e.pop()
		e.now = ev.at
		e.handlers[ev.h](int(ev.arg))
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Exp draws an exponential variate with the given mean.
func (e *Engine) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(e.rng.ExpFloat64() * float64(mean))
}

// Uniform draws a uniform variate in [lo, hi).
func (e *Engine) Uniform(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(e.rng.Int63n(int64(hi-lo)))
}

// Station is a multi-server FIFO queueing station: up to Servers jobs are
// in service simultaneously; excess jobs wait in arrival order. Service
// time is supplied per job. Busy time is accounted for utilization
// reporting.
type Station struct {
	eng      *Engine
	servers  int
	busy     int
	done     func(job int)
	finished Handler
	queue    []job // ring of n waiting jobs from head; length a power of two
	head, n  int

	// accounting
	busyTime    Time // integral of busy servers over time
	lastChange  Time
	maxQueue    int
	queueLimit  int // 0 = unbounded
	served      int64
	dropped     int64
	waitTimeSum Time
}

type job struct {
	arrived Time
	service Time
	id      int
}

// NewStation creates a station with the given parallel service slots.
// queueLimit bounds the waiting room (0 = unbounded); jobs arriving at a
// full waiting room are dropped — matching the QoS server's bounded FIFO.
// done, when not nil, runs with the job's id as each job completes.
func NewStation(eng *Engine, servers, queueLimit int, done func(job int)) *Station {
	if servers < 1 {
		servers = 1
	}
	s := &Station{eng: eng, servers: servers, queueLimit: queueLimit, done: done}
	s.finished = eng.Handle(s.finish)
	return s
}

func (s *Station) account() {
	now := s.eng.Now()
	s.busyTime += Time(int64(now-s.lastChange) * int64(s.busy))
	s.lastChange = now
}

// Submit offers job id (which must fit in an int32) with the given service
// demand. It returns false if the job was dropped at a full queue; done is
// then never called for it.
func (s *Station) Submit(service Time, id int) bool {
	s.account()
	if s.busy < s.servers {
		s.busy++
		s.start(job{arrived: s.eng.Now(), service: service, id: id})
		return true
	}
	if s.queueLimit > 0 && s.n >= s.queueLimit {
		s.dropped++
		return false
	}
	if s.n == len(s.queue) {
		s.grow()
	}
	s.queue[(s.head+s.n)&(len(s.queue)-1)] = job{arrived: s.eng.Now(), service: service, id: id}
	s.n++
	if s.n > s.maxQueue {
		s.maxQueue = s.n
	}
	return true
}

func (s *Station) grow() {
	q := make([]job, max(8, 2*len(s.queue)))
	for i := 0; i < s.n; i++ {
		q[i] = s.queue[(s.head+i)&(len(s.queue)-1)]
	}
	s.queue, s.head = q, 0
}

func (s *Station) start(j job) {
	s.waitTimeSum += s.eng.Now() - j.arrived
	s.eng.PostAfter(j.service, s.finished, j.id)
}

func (s *Station) finish(id int) {
	s.account()
	s.served++
	if s.n > 0 {
		next := s.queue[s.head]
		s.head = (s.head + 1) & (len(s.queue) - 1)
		s.n--
		s.start(next)
	} else {
		s.busy--
	}
	if s.done != nil {
		s.done(id)
	}
}

// Served returns the number of completed jobs.
func (s *Station) Served() int64 { return s.served }

// Dropped returns the number of jobs rejected at a full queue.
func (s *Station) Dropped() int64 { return s.dropped }

// MaxQueue returns the high-water mark of the waiting room.
func (s *Station) MaxQueue() int { return s.maxQueue }

// MeanWait returns the average queueing delay of started jobs.
func (s *Station) MeanWait() Time {
	if s.served == 0 {
		return 0
	}
	return Time(int64(s.waitTimeSum) / s.served)
}

// BusyFraction returns the time-averaged fraction of busy servers since
// simulation start (0..1).
func (s *Station) BusyFraction() float64 {
	s.account()
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(s.busyTime) / (float64(now) * float64(s.servers))
}

// Utilization returns the time-averaged number of busy servers.
func (s *Station) Utilization() float64 {
	return s.BusyFraction() * float64(s.servers)
}

// Ceil converts a float seconds value to Time, rounding up to 1ns minimum
// for positive values so zero-length services still order deterministically.
func Ceil(seconds float64) Time {
	t := Time(math.Ceil(seconds * float64(time.Second)))
	if seconds > 0 && t == 0 {
		t = 1
	}
	return t
}
