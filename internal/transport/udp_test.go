package transport

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/wire"
)

// echoHandler admits keys that start with 'a'.
func echoHandler(req wire.Request) wire.Response {
	return wire.Response{Allow: len(req.Key) > 0 && req.Key[0] == 'a', Status: wire.StatusOK}
}

func startPair(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// genericCfg is lenient enough for loopback under CI scheduling noise.
var genericCfg = Config{Timeout: 50 * time.Millisecond, Retries: 5}

func TestRequestResponse(t *testing.T) {
	_, c := startPair(t, genericCfg)
	resp, err := c.Do(wire.Request{Key: "alice", Cost: 1})
	if err != nil || !resp.Allow {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	resp, err = c.Do(wire.Request{Key: "bob", Cost: 1})
	if err != nil || resp.Allow {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
}

func TestUniqueRequestIDs(t *testing.T) {
	_, c := startPair(t, genericCfg)
	// IDs are assigned internally and must never collide across concurrent
	// callers; exercised implicitly via matched responses.
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := "bob"
				want := false
				if (g+i)%2 == 0 {
					key = "alice"
					want = true
				}
				resp, err := c.Do(wire.Request{Key: key, Cost: 1})
				if err != nil || resp.Allow != want {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d mismatched responses", failures.Load())
	}
}

// arm arms a failpoint for the rest of the test.
func arm(t *testing.T, name string, a failpoint.Action) {
	t.Helper()
	if err := failpoint.Arm(name, a); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)
}

// armServerDrop makes every transport.Server lose incoming datagrams before
// the handler sees them: the first count of them, or all when count is 0.
func armServerDrop(t *testing.T, count int64) {
	t.Helper()
	arm(t, "transport/server/recv", failpoint.Action{Kind: failpoint.Drop, Count: count})
}

func TestRetryRecoversFromDrops(t *testing.T) {
	_, c := startPair(t, Config{Timeout: 20 * time.Millisecond, Retries: 5})
	armServerDrop(t, 3) // the first request's first three attempts are lost
	for i := 0; i < 20; i++ {
		resp, err := c.Do(wire.Request{Key: "alice", Cost: 1})
		if err != nil || !resp.Allow {
			t.Fatalf("request %d: resp=%+v err=%v", i, resp, err)
		}
	}
	attempts, timeouts, _ := c.Stats()
	if timeouts < 3 {
		t.Errorf("timeouts = %d, want >= 3 (one per dropped datagram)", timeouts)
	}
	if attempts < 23 {
		t.Errorf("attempts = %d, want >= 23 (20 requests + 3 retries)", attempts)
	}
}

func TestTimeoutAfterAllRetries(t *testing.T) {
	// Server that drops everything.
	srv, err := NewServer("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	armServerDrop(t, 0)
	c, err := Dial(srv.Addr(), Config{Timeout: 2 * time.Millisecond, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Do(wire.Request{Key: "alice", Cost: 1})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Worst case per the paper: retries × timeout (500 µs there; scaled here).
	if el := time.Since(start); el < 6*time.Millisecond {
		t.Fatalf("returned after %v, want >= 3 attempts × 2ms", el)
	}
	attempts, timeouts, _ := c.Stats()
	if attempts != 3 || timeouts != 3 {
		t.Fatalf("attempts=%d timeouts=%d, want 3/3", attempts, timeouts)
	}
}

// TestRetryBudgetBoundsTotalLatency is the regression test for the retry
// budget: the total time Do may spend is Retries × Timeout, fixed when the
// exchange starts. Before the fix each attempt took a full fresh Timeout
// AFTER any per-attempt stall, so a slow send path (here a 5 ms injected
// delay) inflated the worst case to Retries × (Timeout + stall) — 35 ms
// here instead of the ~10 ms budget. The caller of Do is the router's
// request path; its latency bound is the whole point of the 100 µs × 5
// discipline (§III-B).
func TestRetryBudgetBoundsTotalLatency(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	armServerDrop(t, 0) // server never answers: every attempt must time out
	c, err := Dial(srv.Addr(), Config{Timeout: 2 * time.Millisecond, Retries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := failpoint.Arm("transport/client/send", failpoint.Action{
		Kind: failpoint.Delay, Delay: 5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, attempts, derr := c.DoAttempts(wire.Request{Key: "alice", Cost: 1})
	el := time.Since(start)
	if !errors.Is(derr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", derr)
	}
	// Budget is 10 ms; the last attempt may overshoot by its stall plus one
	// per-try timeout, so allow 2.5× for scheduling noise. The buggy
	// behaviour needs ≥ 35 ms of real sleeps and cannot pass.
	if el >= 25*time.Millisecond {
		t.Fatalf("Do took %v, want < 25ms (budget 10ms)", el)
	}
	if attempts >= 5 {
		t.Fatalf("attempts = %d, want < 5 (stalled attempts consume budget)", attempts)
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Timeout != DefaultTimeout || cfg.Retries != DefaultRetries {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestClientClosed(t *testing.T) {
	_, c := startPair(t, genericCfg)
	c.Close()
	if _, err := c.Do(wire.Request{Key: "alice"}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("err = %v, want net.ErrClosed", err)
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("not-an-address", Config{}); err == nil {
		t.Fatal("dial succeeded on bad address")
	}
}

func TestServerIgnoresGarbage(t *testing.T) {
	srv, c := startPair(t, genericCfg)
	// Fire raw garbage at the server; it must survive and keep serving.
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 10; i++ {
		conn.Write([]byte("garbage datagram"))
	}
	resp, err := c.Do(wire.Request{Key: "alice", Cost: 1})
	if err != nil || !resp.Allow {
		t.Fatalf("server wedged by garbage: %+v %v", resp, err)
	}
}

func TestClientIgnoresGarbageResponses(t *testing.T) {
	// A raw UDP socket posing as a server returns garbage then a valid
	// response; the client must skip the garbage and match the real one.
	laddr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	raw, err := net.ListenUDP("udp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go func() {
		buf := make([]byte, 65536)
		for {
			n, addr, err := raw.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, err := wire.DecodeRequest(buf[:n])
			if err != nil {
				continue
			}
			raw.WriteToUDP([]byte("junk"), addr)
			pkt, _ := wire.EncodeResponse(wire.Response{ID: req.ID, Allow: true})
			raw.WriteToUDP(pkt, addr)
		}
	}()
	c, err := Dial(raw.LocalAddr().String(), Config{Timeout: 100 * time.Millisecond, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Do(wire.Request{Key: "x"})
	if err != nil || !resp.Allow {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
}

// oldServer is a janusd reduced to the singleton codec
// (wire.DecodeRequest / wire.AppendResponse) on a raw socket.
func oldServer(t *testing.T) string {
	t.Helper()
	laddr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	raw, err := net.ListenUDP("udp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	go func() {
		buf := make([]byte, 65536)
		out := make([]byte, 0, 64)
		for {
			n, addr, err := raw.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, err := wire.DecodeRequest(buf[:n])
			if err != nil {
				continue
			}
			resp := echoHandler(req)
			resp.ID = req.ID
			out, _ = wire.AppendResponse(out[:0], resp)
			raw.WriteToUDP(out, addr)
		}
	}()
	return raw.LocalAddr().String()
}

// Mixed-version cluster: every frame the client sends is one a legacy
// decoder reads, so concurrent callers against an old janusd all get their
// own verdicts.
func TestOldServerForwardCompat(t *testing.T) {
	c, err := Dial(oldServer(t), genericCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key, want := "alice", true
				if w%2 == 1 {
					key, want = "bob", false
				}
				resp, err := c.Do(wire.Request{Key: key, Cost: 1})
				if err != nil || resp.Allow != want {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed against a legacy server", failures.Load())
	}
}

func TestHighConcurrencyThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	_, c := startPair(t, Config{Timeout: 100 * time.Millisecond, Retries: 5})
	const workers = 16
	const per = 500
	var wg sync.WaitGroup
	var errs atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.Do(wire.Request{Key: "alice", Cost: 1}); err != nil {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if e := errs.Load(); e > workers*per/100 {
		t.Fatalf("%d/%d requests failed", e, workers*per)
	}
}

// TestDoAllocPin: an exchange with the echo server allocates nothing on
// either end once warm — the client's waiter comes from its pool, and the
// server reads and writes the peer as a netip.AddrPort value.
// AllocsPerRun counts the whole process, the server included.
func TestDoAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins run uninstrumented")
	}
	_, c := startPair(t, genericCfg)
	do := func() {
		if resp, err := c.Do(wire.Request{Key: "alice", Cost: 1}); err != nil || !resp.Allow {
			t.Fatalf("resp=%+v err=%v", resp, err)
		}
	}
	do()
	if n := testing.AllocsPerRun(200, do); n != 0 {
		t.Fatalf("Do allocates %v times per call, want 0", n)
	}
}

// ownReplies sends n sequential requests whose verdicts alternate (echoHandler
// admits "alice", denies "bob") and fails the test on any reply that is not
// the request's own: a different ID or a different verdict. A timed-out
// request is allowed; it reports how many got a reply.
func ownReplies(t *testing.T, c *Client, n int) (answered int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key, want := "alice", true
		if i%2 == 1 {
			key, want = "bob", false
		}
		resp, err := c.Do(wire.Request{Key: key, Cost: 1})
		if errors.Is(err, ErrTimeout) {
			continue
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		// Requests are sequential, so the last ID handed out is this one's.
		if id := c.nextID.Load(); resp.ID != id || resp.Allow != want {
			t.Fatalf("request %d (ID %d, allow %v) got ID %d, allow %v: a reply that belongs to another exchange", i, id, want, resp.ID, resp.Allow)
		}
		answered++
	}
	return answered
}

// TestDuplicateRepliesStayWithTheirExchange: every request leaves twice, so
// every ID is answered twice. The second reply must die with its exchange,
// not wait in the pooled waiter for the next one. The second reply races the
// exchange's release, which takes parallel threads to show: the test runs
// more of them than a small machine has CPUs, so the kernel also preempts
// the reader mid-delivery, and each round dials a fresh client, so the
// reader and the caller are placed anew.
func TestDuplicateRepliesStayWithTheirExchange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	srv, err := NewServer("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	arm(t, "transport/client/send", failpoint.Action{Kind: failpoint.Dup})
	const rounds, per = 16, 1250
	for r := 0; r < rounds; r++ {
		c, err := Dial(srv.Addr(), genericCfg)
		if err != nil {
			t.Fatal(err)
		}
		n := ownReplies(t, c, per)
		_, _, responses := c.Stats()
		c.Close()
		if n != per {
			t.Fatalf("round %d: %d of %d requests answered", r, n, per)
		}
		if responses < per*3/2 {
			t.Fatalf("round %d: %d responses read for %d requests, want the duplicates too", r, responses, per)
		}
	}
}

// TestLateRepliesStayWithTheirExchange: some replies reach the client only
// after their exchange has timed out and its waiter gone back to the pool.
// The next exchange, on the same waiter, must still get its own reply.
func TestLateRepliesStayWithTheirExchange(t *testing.T) {
	const timeout = 2 * time.Millisecond
	_, c := startPair(t, Config{Timeout: timeout, Retries: 2})
	arm(t, "transport/client/recv", failpoint.Action{Kind: failpoint.Delay, Delay: 2*timeout + timeout/2, P: 0.2, Seed: 1})
	answered := ownReplies(t, c, 300)
	if answered == 0 || answered == 300 {
		t.Fatalf("%d of 300 requests answered; the test needs some late replies and some on time", answered)
	}
}
