package memcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func startPair(t *testing.T) (*Cache, *Client) {
	t.Helper()
	cache := NewCache()
	srv, err := NewServer(cache, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return cache, c
}

func TestCacheSetGet(t *testing.T) {
	c := NewCache()
	c.Set("k", 7, 0, []byte("value"))
	it, ok := c.Get("k")
	if !ok || string(it.Value) != "value" || it.Flags != 7 {
		t.Fatalf("it=%+v ok=%v", it, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestCacheValueIsolation(t *testing.T) {
	c := NewCache()
	v := []byte("abc")
	c.Set("k", 0, 0, v)
	v[0] = 'X' // caller mutation must not leak in
	it, _ := c.Get("k")
	if string(it.Value) != "abc" {
		t.Fatal("stored value aliased caller buffer")
	}
	it.Value[0] = 'Y' // returned copy must not leak back
	it2, _ := c.Get("k")
	if string(it2.Value) != "abc" {
		t.Fatal("returned value aliased storage")
	}
}

func TestCacheExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCacheWithClock(func() time.Time { return now })
	c.Set("k", 0, 10, []byte("v"))
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh key missing")
	}
	now = now.Add(11 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("expired key served")
	}
	// Zero exptime never expires.
	c.Set("p", 0, 0, []byte("v"))
	now = now.Add(1000 * time.Hour)
	if _, ok := c.Get("p"); !ok {
		t.Fatal("eternal key expired")
	}
}

func TestCacheAdd(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newCacheWithClock(func() time.Time { return now })
	if !c.Add("k", 0, 10, []byte("1")) {
		t.Fatal("add to empty failed")
	}
	if c.Add("k", 0, 10, []byte("2")) {
		t.Fatal("add over live key succeeded")
	}
	now = now.Add(11 * time.Second)
	if !c.Add("k", 0, 10, []byte("3")) {
		t.Fatal("add over expired key failed")
	}
}

func TestCacheDelete(t *testing.T) {
	c := NewCache()
	c.Set("k", 0, 10, []byte("v"))
	if !c.Delete("k") {
		t.Fatal("delete failed")
	}
	if c.Delete("k") {
		t.Fatal("double delete succeeded")
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	_, c := startPair(t)
	if err := c.Set("session:1", []byte(`{"user":"alice"}`), 0); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("session:1")
	if err != nil || string(v) != `{"user":"alice"}` {
		t.Fatalf("v=%q err=%v", v, err)
	}
	if _, err := c.Get("nope"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientAdd(t *testing.T) {
	_, c := startPair(t)
	if err := c.Add("k", []byte("1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("k", []byte("2"), 0); !errors.Is(err, ErrNotStored) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientDelete(t *testing.T) {
	_, c := startPair(t)
	c.Set("k", []byte("v"), 0)
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("err = %v", err)
	}
}

func TestBinaryValuesWithCRLF(t *testing.T) {
	_, c := startPair(t)
	payload := []byte("line1\r\nline2\r\nEND\r\n\x00\x01\x02")
	if err := c.Set("bin", payload, 0); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("bin")
	if err != nil || string(v) != string(payload) {
		t.Fatalf("v=%q err=%v", v, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	cache := NewCache()
	srv, err := NewServer(cache, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("k-%d-%d", g, i)
				if err := c.Set(k, []byte(k), 0); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				v, err := c.Get(k)
				if err != nil || string(v) != k {
					t.Errorf("get %s: %q %v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if cache.Len() != 800 {
		t.Fatalf("len = %d", cache.Len())
	}
}

func TestStats(t *testing.T) {
	cache, c := startPair(t)
	c.Set("a", []byte("1"), 0)
	c.Get("a")
	c.Get("b")
	gets, hits, sets := cache.Stats()
	if gets != 2 || hits != 1 || sets != 1 {
		t.Fatalf("stats = %d/%d/%d", gets, hits, sets)
	}
}

// TestServerRejectsGarbage: a command the server does not implement —
// among them memcached's touch, incr, decr and flush_all, which no client
// here sends — gets ERROR, and the connection stays usable.
func TestServerRejectsGarbage(t *testing.T) {
	_, c := startPair(t)
	for _, cmd := range []string{"frobnicate", "touch k 10", "incr k 1", "decr k 1", "flush_all"} {
		if _, err := fmt.Fprintf(c.conn, "%s\r\n", cmd); err != nil {
			t.Fatal(err)
		}
		if line, err := c.r.ReadString('\n'); err != nil || line != "ERROR\r\n" {
			t.Fatalf("%q: reply %q, %v; want ERROR", cmd, line, err)
		}
		if err := c.Set("k", []byte(cmd), 0); err != nil {
			t.Fatalf("set after %q: %v", cmd, err)
		}
		if v, err := c.Get("k"); err != nil || string(v) != cmd {
			t.Fatalf("get after %q: %q, %v", cmd, v, err)
		}
	}
}
