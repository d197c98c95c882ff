// Package memcache is a minimal memcached implementation (server and
// client) speaking the memcached text protocol. It stands in for the
// dedicated Memcached session server in the photo-sharing application of
// the paper's §V-D evaluation. The server is a handler on internal/tcp's
// accept loop.
//
// Supported commands: set, add, get (multi-key), delete, stats, version,
// quit; any other command is answered ERROR. Expiration follows memcached
// semantics: an exptime of 0 never expires; positive values are relative
// seconds (the ≥30-days-is-absolute rule is not needed by the workload and
// is not implemented).
package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/tcp"
)

// Item is one cache entry.
type Item struct {
	Key     string
	Flags   uint32
	Value   []byte
	expires time.Time // zero = never
}

// Cache is the storage engine, usable directly or behind a Server.
type Cache struct {
	mu    sync.Mutex
	items map[string]*Item
	clock func() time.Time

	gets, hits, sets metrics
}

type metrics struct{ n int64 }

func (m *metrics) inc() { m.n++ }

// NewCache returns an empty cache.
func NewCache() *Cache { return newCacheWithClock(time.Now) }

// newCacheWithClock returns a cache with an injectable clock.
func newCacheWithClock(clock func() time.Time) *Cache {
	return &Cache{items: make(map[string]*Item), clock: clock}
}

func (c *Cache) expired(it *Item) bool {
	return !it.expires.IsZero() && !c.clock().Before(it.expires)
}

func (c *Cache) expiry(exptime int64) time.Time {
	if exptime <= 0 {
		return time.Time{}
	}
	return c.clock().Add(time.Duration(exptime) * time.Second)
}

// Set stores an item unconditionally.
func (c *Cache) Set(key string, flags uint32, exptime int64, value []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sets.inc()
	c.items[key] = &Item{Key: key, Flags: flags, Value: append([]byte(nil), value...), expires: c.expiry(exptime)}
}

// Add stores only if the key is absent (or expired); it reports success.
func (c *Cache) Add(key string, flags uint32, exptime int64, value []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it, ok := c.items[key]; ok && !c.expired(it) {
		return false
	}
	c.sets.inc()
	c.items[key] = &Item{Key: key, Flags: flags, Value: append([]byte(nil), value...), expires: c.expiry(exptime)}
	return true
}

// Get fetches an item; ok is false on miss or expiry.
func (c *Cache) Get(key string) (Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets.inc()
	it, ok := c.items[key]
	if !ok {
		return Item{}, false
	}
	if c.expired(it) {
		delete(c.items, key)
		return Item{}, false
	}
	c.hits.inc()
	return Item{Key: it.Key, Flags: it.Flags, Value: append([]byte(nil), it.Value...), expires: it.expires}, true
}

// Delete removes a key; it reports whether the key existed (unexpired).
func (c *Cache) Delete(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[key]
	if !ok || c.expired(it) {
		delete(c.items, key)
		return false
	}
	delete(c.items, key)
	return true
}

// Len returns the number of resident (possibly expired) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns basic counters.
func (c *Cache) Stats() (gets, hits, sets int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets.n, c.hits.n, c.sets.n
}

// Server exposes a Cache over the memcached text protocol (tcp.Serve).
type Server struct {
	cache *Cache
	srv   *tcp.Server
}

// NewServer starts a server on addr ("127.0.0.1:0" for ephemeral).
func NewServer(cache *Cache, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("memcache: listen %s: %w", addr, err)
	}
	s := &Server{cache: cache}
	s.srv = tcp.Serve(ln, s.serve)
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.srv.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) serve(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if quit := s.dispatch(fields, r, w); quit {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(fields []string, r *bufio.Reader, w *bufio.Writer) (quit bool) {
	switch fields[0] {
	case "set", "add":
		if len(fields) != 5 {
			fmt.Fprint(w, "CLIENT_ERROR bad command line\r\n")
			return false
		}
		flags, err1 := strconv.ParseUint(fields[2], 10, 32)
		exptime, err2 := strconv.ParseInt(fields[3], 10, 64)
		nbytes, err3 := strconv.Atoi(fields[4])
		if err1 != nil || err2 != nil || err3 != nil || nbytes < 0 || nbytes > 8<<20 {
			fmt.Fprint(w, "CLIENT_ERROR bad command line\r\n")
			return false
		}
		data := make([]byte, nbytes+2)
		if _, err := io.ReadFull(r, data); err != nil {
			return true
		}
		if !bytes.HasSuffix(data, []byte("\r\n")) {
			fmt.Fprint(w, "CLIENT_ERROR bad data chunk\r\n")
			return false
		}
		value := data[:nbytes]
		if fields[0] == "set" {
			s.cache.Set(fields[1], uint32(flags), exptime, value)
			fmt.Fprint(w, "STORED\r\n")
		} else if s.cache.Add(fields[1], uint32(flags), exptime, value) {
			fmt.Fprint(w, "STORED\r\n")
		} else {
			fmt.Fprint(w, "NOT_STORED\r\n")
		}
	case "get", "gets":
		for _, key := range fields[1:] {
			if it, ok := s.cache.Get(key); ok {
				fmt.Fprintf(w, "VALUE %s %d %d\r\n", it.Key, it.Flags, len(it.Value))
				_, _ = w.Write(it.Value) // a failed write sticks: Flush reports it
				fmt.Fprint(w, "\r\n")
			}
		}
		fmt.Fprint(w, "END\r\n")
	case "delete":
		if len(fields) != 2 {
			fmt.Fprint(w, "CLIENT_ERROR bad command line\r\n")
			return false
		}
		if s.cache.Delete(fields[1]) {
			fmt.Fprint(w, "DELETED\r\n")
		} else {
			fmt.Fprint(w, "NOT_FOUND\r\n")
		}
	case "stats":
		gets, hits, sets := s.cache.Stats()
		fmt.Fprintf(w, "STAT cmd_get %d\r\nSTAT get_hits %d\r\nSTAT cmd_set %d\r\nSTAT curr_items %d\r\nEND\r\n",
			gets, hits, sets, s.cache.Len())
	case "version":
		fmt.Fprint(w, "VERSION 1.5.4-janus-repro\r\n")
	case "quit":
		return true
	default:
		fmt.Fprint(w, "ERROR\r\n")
	}
	return false
}

// Client is a minimal memcached text-protocol client over one connection.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// ErrCacheMiss is returned by Get on a miss.
var ErrCacheMiss = errors.New("memcache: cache miss")

// ErrNotStored is returned by Add when the key already exists.
var ErrNotStored = errors.New("memcache: not stored")

// Dial connects to a memcached server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("memcache: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) store(cmd, key string, flags uint32, exptime int64, value []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(c.w, "%s %s %d %d %d\r\n", cmd, key, flags, exptime, len(value))
	_, _ = c.w.Write(value) // a failed write sticks: Flush reports it
	fmt.Fprint(c.w, "\r\n")
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	switch strings.TrimRight(line, "\r\n") {
	case "STORED":
		return nil
	case "NOT_STORED":
		return ErrNotStored
	default:
		return fmt.Errorf("memcache: %s", strings.TrimRight(line, "\r\n"))
	}
}

// Set stores a value.
func (c *Client) Set(key string, value []byte, exptime int64) error {
	return c.store("set", key, 0, exptime, value)
}

// Add stores a value only if absent.
func (c *Client) Add(key string, value []byte, exptime int64) error {
	return c.store("add", key, 0, exptime, value)
}

// Get fetches one key.
func (c *Client) Get(key string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(c.w, "get %s\r\n", key)
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	var value []byte
	found := false
	for {
		line, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "END" {
			break
		}
		var k string
		var flags uint32
		var n int
		if _, err := fmt.Sscanf(line, "VALUE %s %d %d", &k, &flags, &n); err != nil {
			return nil, fmt.Errorf("memcache: bad response %q", line)
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return nil, err
		}
		value = buf[:n]
		found = true
	}
	if !found {
		return nil, ErrCacheMiss
	}
	return value, nil
}

// Delete removes a key.
func (c *Client) Delete(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(c.w, "delete %s\r\n", key)
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	switch strings.TrimRight(line, "\r\n") {
	case "DELETED":
		return nil
	case "NOT_FOUND":
		return ErrCacheMiss
	default:
		return fmt.Errorf("memcache: %s", strings.TrimRight(line, "\r\n"))
	}
}
