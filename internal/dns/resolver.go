package dns

import (
	"sync"
	"time"
)

// Resolver is a caching stub resolver modelling the operating-system
// behaviour described in §V-A of the paper: "by default most operating
// systems cache DNS resolution results until the time-to-live (TTL)
// property of the DNS record expires", and "the QoS client attempts to
// connect ... with the first IP address returned from the DNS query".
type Resolver struct {
	server *Server
	clock  Clock

	mu    sync.Mutex
	cache map[string]cacheEntry
}

type cacheEntry struct {
	addrs   []string
	expires time.Time
}

// NewResolver returns a caching resolver backed by server.
func NewResolver(server *Server) *Resolver {
	return newResolverWithClock(server, time.Now)
}

// newResolverWithClock returns a resolver using the given clock for TTL
// accounting.
func newResolverWithClock(server *Server, clock Clock) *Resolver {
	return &Resolver{server: server, clock: clock, cache: make(map[string]cacheEntry)}
}

// resolve returns the cached address list for name, querying the server on
// a cache miss or TTL expiry. The returned slice must not be modified.
func (r *Resolver) resolve(name string) ([]string, error) {
	now := r.clock()
	r.mu.Lock()
	if e, ok := r.cache[name]; ok && now.Before(e.expires) {
		addrs := e.addrs
		r.mu.Unlock()
		return addrs, nil
	}
	r.mu.Unlock()
	addrs, ttl, err := r.server.Query(name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cache[name] = cacheEntry{addrs: addrs, expires: now.Add(ttl)}
	r.mu.Unlock()
	return addrs, nil
}

// ResolveOne returns the first address for name — the connection target an
// OS-level client would pick.
func (r *Resolver) ResolveOne(name string) (string, error) {
	addrs, err := r.resolve(name)
	if err != nil {
		return "", err
	}
	if len(addrs) == 0 {
		return "", ErrNXDomain
	}
	return addrs[0], nil
}

// UncachedResolver bypasses caching entirely; every resolution is a fresh
// query. The cluster's routers resolve QoS server names with it: a router
// re-resolves only after a timeout has invalidated a backend, and must then
// see the post-failover answer at once, not a cached pre-failover one.
type UncachedResolver struct{ server *Server }

// NewUncachedResolver returns a resolver with no cache.
func NewUncachedResolver(server *Server) *UncachedResolver {
	return &UncachedResolver{server: server}
}

// resolve queries the server directly.
func (r *UncachedResolver) resolve(name string) ([]string, error) {
	addrs, _, err := r.server.Query(name)
	return addrs, err
}

// ResolveOne returns the first address from a fresh query.
func (r *UncachedResolver) ResolveOne(name string) (string, error) {
	addrs, err := r.resolve(name)
	if err != nil {
		return "", err
	}
	if len(addrs) == 0 {
		return "", ErrNXDomain
	}
	return addrs[0], nil
}
