package membership

import (
	"sync"
	"time"

	"repro/internal/tick"
)

// Member is one backend known to the coordinator.
type Member struct {
	// Name is the routable backend name (DNS name or literal UDP address)
	// that appears in View.Backends.
	Name string
	// Addr is the backend's handoff/replication TCP address, used to push
	// bucket state when ownership moves. May be empty when the backend
	// does not accept handoffs.
	Addr string
	// Alive reports whether the member is in the current view.
	Alive bool
	// LastBeat is the time of the most recent heartbeat (or admission).
	LastBeat time.Time
}

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// TTL is the heartbeat expiry: a member whose last heartbeat is older
	// than TTL is ejected from the view. 0 disables expiry (membership
	// changes only through Join/Leave).
	TTL time.Duration
	// Clock injects time for tests; nil means time.Now.
	Clock func() time.Time
}

// Coordinator is the lightweight membership authority: it tracks members
// and their heartbeats, ejects the dead, re-admits the recovered, and
// publishes an epoch-versioned View to subscribers on every change.
//
// Members keep their admission-order slot across ejection and re-admission,
// so a flapping backend returns to its original partition index instead of
// reshuffling everyone else.
type Coordinator struct {
	ttl   time.Duration
	clock func() time.Time

	mu      sync.Mutex
	members map[string]*memberState
	order   []string // admission order; names persist across ejection
	epoch   uint64
	view    View
	subs    map[int]func(View)
	nextSub int

	monitor *tick.Loop // the expiry monitor; nil without a TTL
}

type memberState struct {
	addr     string
	alive    bool
	lastBeat time.Time
}

// NewCoordinator starts a coordinator. When cfg.TTL > 0 a monitor
// goroutine ejects members whose heartbeats stop; call Close to stop it.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	c := &Coordinator{
		ttl:     cfg.TTL,
		clock:   clock,
		members: make(map[string]*memberState),
		subs:    make(map[int]func(View)),
	}
	c.view = View{Epoch: 0}
	if cfg.TTL > 0 {
		interval := cfg.TTL / 4
		if interval <= 0 {
			interval = time.Millisecond
		}
		c.monitor = tick.Every(interval, func() { c.CheckNow() })
	}
	return c
}

// Join admits (or updates) a member and publishes the new view. It returns
// the published view.
func (c *Coordinator) Join(name, addr string) View {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[name]
	if !ok {
		m = &memberState{}
		c.members[name] = m
		c.order = append(c.order, name)
	}
	changed := !ok || !m.alive || m.addr != addr
	m.addr = addr
	m.alive = true
	m.lastBeat = c.clock()
	if changed {
		return c.publishLocked()
	}
	return c.view
}

// Leave removes a member permanently and publishes the new view.
func (c *Coordinator) Leave(name string) View {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[name]; !ok {
		return c.view
	}
	delete(c.members, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	return c.publishLocked()
}

// heartbeat refreshes a member's liveness deadline, admitting it first if
// unknown and re-admitting it if it had been ejected. addr updates the
// handoff address when non-empty.
func (c *Coordinator) heartbeat(name, addr string) View {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[name]
	if !ok {
		m = &memberState{addr: addr, alive: true, lastBeat: c.clock()}
		c.members[name] = m
		c.order = append(c.order, name)
		return c.publishLocked()
	}
	m.lastBeat = c.clock()
	if addr != "" {
		m.addr = addr
	}
	if !m.alive {
		m.alive = true // recovered: re-admit at its original slot
		return c.publishLocked()
	}
	return c.view
}

// View returns the current view.
func (c *Coordinator) View() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// Epoch returns the current epoch.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Members returns a snapshot of every known member (alive or ejected) in
// admission order.
func (c *Coordinator) Members() []Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Member, 0, len(c.order))
	for _, name := range c.order {
		m := c.members[name]
		out = append(out, Member{Name: name, Addr: m.addr, Alive: m.alive, LastBeat: m.lastBeat})
	}
	return out
}

// Addr returns the handoff address registered for the named member ("" if
// unknown).
func (c *Coordinator) Addr(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[name]; ok {
		return m.addr
	}
	return ""
}

// Subscribe registers fn to be called with every published view, starting
// immediately with the current one. The returned cancel unregisters it.
// fn is invoked with the coordinator lock held and must not call back into
// coordinator mutators.
func (c *Coordinator) Subscribe(fn func(View)) (cancel func()) {
	c.mu.Lock()
	id := c.nextSub
	c.nextSub++
	c.subs[id] = fn
	v := c.view
	fn(v)
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
	}
}

// CheckNow runs one expiry pass immediately (tests and manual probes) and
// returns the current view afterwards.
func (c *Coordinator) CheckNow() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked()
	return c.view
}

// publishLocked rebuilds the view from the alive members, advances the
// epoch, and notifies subscribers. Callers must hold c.mu.
func (c *Coordinator) publishLocked() View {
	c.epoch++
	v := View{Epoch: c.epoch}
	for _, name := range c.order {
		m := c.members[name]
		if m.alive {
			v.Backends = append(v.Backends, name)
		}
	}
	c.view = v
	for _, fn := range c.subs {
		fn(v)
	}
	return v
}

func (c *Coordinator) expireLocked() {
	if c.ttl <= 0 {
		return
	}
	deadline := c.clock().Add(-c.ttl)
	changed := false
	for _, m := range c.members {
		if m.alive && m.lastBeat.Before(deadline) {
			m.alive = false
			changed = true
		}
	}
	if changed {
		c.publishLocked()
	}
}

// Close stops the expiry monitor. The coordinator remains queryable.
func (c *Coordinator) Close() { c.monitor.Stop() }
