// Package dns is an in-process DNS substrate standing in for Amazon
// Route53 (paper §III-A). It provides exactly the behaviours Janus depends
// on:
//
//   - A records mapping a name to a set of addresses, with a TTL;
//   - per-query permutation of the address list (round-robin DNS — "With
//     each DNS query request, the IP address sequence in the list is
//     permuted");
//   - client-side resolvers that cache results until the TTL expires, the
//     OS behaviour responsible for the load-skew discussed in §V-A;
//   - health-checked failover records: a primary/secondary pair where the
//     name resolves to the primary while it is healthy and flips to the
//     secondary on failure (the Route53 "health check and fail over
//     mechanism" that manages QoS-server master/slave pairs and the
//     Multi-AZ database endpoint).
//
// Addresses are opaque strings (host:port), which is what the rest of the
// system consumes.
package dns

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/tick"
)

// ErrNXDomain is returned when a name has no records.
var ErrNXDomain = errors.New("dns: no such domain")

// Clock abstracts time for deterministic tests.
type Clock func() time.Time

// Server is an authoritative DNS server for a flat zone.
type Server struct {
	mu      sync.Mutex
	records map[string]*record
	clock   Clock
	queries int64 // queries served, for the tests of resolver caching
}

type record struct {
	addrs    []string
	ttl      time.Duration
	rotation int
	failover *failover
}

type failover struct {
	primary   []string
	secondary []string
	usePri    bool
	check     HealthChecker
	loop      *tick.Loop // the health check; stopped outside s.mu, which it takes
}

// HealthChecker probes a target address and reports whether it is healthy.
type HealthChecker func(addr string) bool

// NewServer returns an empty zone.
func NewServer() *Server { return newServerWithClock(time.Now) }

// newServerWithClock returns an empty zone using the given clock.
func newServerWithClock(clock Clock) *Server {
	return &Server{records: make(map[string]*record), clock: clock}
}

// SetA installs or replaces the A record for name.
func (s *Server) SetA(name string, ttl time.Duration, addrs ...string) {
	s.replace(name, &record{addrs: append([]string(nil), addrs...), ttl: ttl})
}

// replace sets name's record to r (nil deletes it) and stops the health
// check of the failover record it replaces.
func (s *Server) replace(name string, r *record) {
	s.mu.Lock()
	old := s.records[name]
	if r != nil {
		s.records[name] = r
	} else {
		delete(s.records, name)
	}
	s.mu.Unlock()
	if old != nil && old.failover != nil {
		old.failover.loop.Stop()
	}
}

// AddA appends addresses to an existing record (creating it if needed).
func (s *Server) AddA(name string, ttl time.Duration, addrs ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.records[name]
	if r == nil {
		r = &record{ttl: ttl}
		s.records[name] = r
	}
	r.addrs = append(r.addrs, addrs...)
	r.ttl = ttl
}

// RemoveA removes one address from a record; the record remains (possibly
// empty) so the name still exists.
func (s *Server) RemoveA(name, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.records[name]
	if r == nil {
		return
	}
	out := r.addrs[:0]
	for _, a := range r.addrs {
		if a != addr {
			out = append(out, a)
		}
	}
	r.addrs = out
}

// Delete removes a name entirely.
func (s *Server) Delete(name string) { s.replace(name, nil) }

// SetFailover installs a health-checked failover record: name resolves to
// primary while check(primary) is true, and to secondary otherwise. The
// health check runs every interval until the record is replaced or the
// server is closed. The initial state is "primary healthy".
func (s *Server) SetFailover(name string, ttl time.Duration, primary, secondary string, check HealthChecker, interval time.Duration) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	fo := &failover{
		primary:   []string{primary},
		secondary: []string{secondary},
		usePri:    true,
		check:     check,
	}
	fo.loop = tick.Every(interval, func() { s.checkFailover(name, fo) })
	s.replace(name, &record{ttl: ttl, failover: fo})
}

// checkFailover runs fo's health check and, while fo is still name's
// record, points the name at the primary or the secondary by its verdict.
func (s *Server) checkFailover(name string, fo *failover) bool {
	healthy := fo.check(fo.primary[0])
	s.mu.Lock()
	if r := s.records[name]; r != nil && r.failover == fo {
		fo.usePri = healthy
	}
	s.mu.Unlock()
	return healthy
}

// CheckNow forces an immediate health evaluation of a failover record,
// returning whether the primary is in service afterwards. It exists so
// tests and orchestrators need not wait for the next tick.
func (s *Server) CheckNow(name string) (primaryActive bool, err error) {
	s.mu.Lock()
	r := s.records[name]
	if r == nil || r.failover == nil {
		s.mu.Unlock()
		return false, fmt.Errorf("dns: %q is not a failover record", name)
	}
	fo := r.failover
	s.mu.Unlock()
	return s.checkFailover(name, fo), nil
}

// Query answers a DNS query: the full (permuted) address list and its TTL.
func (s *Server) Query(name string) ([]string, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queries++
	r := s.records[name]
	if r == nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrNXDomain, name)
	}
	if fo := r.failover; fo != nil {
		if fo.usePri {
			return append([]string(nil), fo.primary...), r.ttl, nil
		}
		return append([]string(nil), fo.secondary...), r.ttl, nil
	}
	n := len(r.addrs)
	if n == 0 {
		return nil, r.ttl, nil
	}
	// Round-robin permutation: rotate the list by one per query.
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = r.addrs[(i+r.rotation)%n]
	}
	r.rotation = (r.rotation + 1) % n
	return out, r.ttl, nil
}

// Names returns all registered names, sorted.
func (s *Server) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.records))
	for n := range s.records {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Close stops all failover health-check loops.
func (s *Server) Close() {
	s.mu.Lock()
	var loops []*tick.Loop
	for _, r := range s.records {
		if r.failover != nil {
			loops = append(loops, r.failover.loop)
		}
	}
	s.mu.Unlock()
	for _, l := range loops {
		l.Stop()
	}
}
