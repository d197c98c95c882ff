package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/netip"
	"os"
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
			var req wire.Request
			err = wire.DecodeRequestReuse(buf[:n], &req)
			if err != nil {
				continue
			}
			raw.WriteToUDP([]byte("junk"), addr)
			pkt, _ := wire.AppendResponse(nil, wire.Response{ID: req.ID, Allow: true})
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
// (wire.DecodeRequestKey / wire.AppendResponse) on a raw socket. Like
// echoHandler it admits keys that start with 'a', but it reads the verdict
// from the key's bytes and the peer as a netip.AddrPort, so it allocates
// nothing per datagram whatever the key.
func oldServer(t *testing.T) string {
	t.Helper()
	laddr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	raw, err := net.ListenUDP("udp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	go func() {
		var req wire.Request
		buf := make([]byte, 65536)
		out := make([]byte, 0, 64)
		for {
			n, addr, err := raw.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			key, err := wire.DecodeRequestKey(buf[:n], &req)
			if err != nil {
				continue
			}
			out, _ = wire.AppendResponse(out[:0], wire.Response{ID: req.ID, Allow: len(key) > 0 && key[0] == 'a'})
			raw.WriteToUDPAddrPort(out, addr)
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

// TestDoAllocPin: exchanges whose key changes every time allocate nothing
// on either end once warm — the client's socket and its buffers come from
// its idle list, and the server answers from the key's bytes. AllocsPerRun
// counts the whole process, the server included.
func TestDoAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc pins run uninstrumented")
	}
	c, err := Dial(oldServer(t), genericCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := []string{"alice", "anna", "alfred"}
	n := 0
	do := func() {
		key := keys[n%len(keys)]
		n++
		if resp, err := c.Do(wire.Request{Key: key, Cost: 1}); err != nil || !resp.Allow {
			t.Fatalf("%s: resp=%+v err=%v", key, resp, err)
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
// every ID is answered twice. The second reply waits on the socket for the
// next exchange, which must read and drop it, not take it for its own. The
// test runs more threads than a small machine has CPUs, so the kernel also
// preempts the caller between reads, and each round dials a fresh client.
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
// after their exchange's budget ran out (the recv delay outlasts it), and
// the retry's reply is then still on the socket when it goes back to the
// idle list. The next exchange, on the same socket, must still get its own
// reply.
func TestLateRepliesStayWithTheirExchange(t *testing.T) {
	const timeout = 2 * time.Millisecond
	_, c := startPair(t, Config{Timeout: timeout, Retries: 2})
	arm(t, "transport/client/recv", failpoint.Action{Kind: failpoint.Delay, Delay: 2*timeout + timeout/2, P: 0.2, Seed: 1})
	answered := ownReplies(t, c, 300)
	if answered == 0 || answered == 300 {
		t.Fatalf("%d of 300 requests answered; the test needs some late replies and some on time", answered)
	}
}

// TestExchangesStartNoGoroutine: a client runs every exchange on its
// caller's goroutine; dialling it and exchanging leaves the goroutine count
// where it was.
func TestExchangesStartNoGoroutine(t *testing.T) {
	addr := oldServer(t)
	before := runtime.NumGoroutine()
	c, err := Dial(addr, genericCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := ownReplies(t, c, 50); n != 50 {
		t.Fatalf("%d of 50 requests answered", n)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines %d before Dial, %d after 50 exchanges", before, after)
	}
}

// openFDs counts the process's open descriptors, skipping the test where
// /proc is absent.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count descriptors: %v", err)
	}
	return len(fds)
}

// TestSocketsAreBounded: twice maxSockets exchanges at once share
// maxSockets sockets. The server holds its replies until maxSockets
// requests are in, and no further request arrives while it holds them: the
// other exchanges wait for a socket. Then every exchange is answered, at
// most maxSockets peers ever sent, and Close brings the descriptor count
// back to where it was.
func TestSocketsAreBounded(t *testing.T) {
	const exchanges = 2 * maxSockets
	laddr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	raw, err := net.ListenUDP("udp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	base := openFDs(t)
	type result struct {
		peers, held, early, fds int
	}
	done := make(chan result, 1)
	go func() {
		var r result
		var req wire.Request
		buf := make([]byte, 65536)
		peers := map[netip.AddrPort]bool{}
		answer := func(id uint64, peer netip.AddrPort) {
			out, _ := wire.AppendResponse(nil, wire.Response{ID: id, Allow: true})
			raw.WriteToUDPAddrPort(out, peer)
		}
		type pending struct {
			id   uint64
			peer netip.AddrPort
		}
		var held []pending
		for answered := 0; answered < exchanges; {
			n, peer, err := raw.ReadFromUDPAddrPort(buf)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// Every socket is held and no other request came in.
				fds, _ := os.ReadDir("/proc/self/fd")
				r.fds = len(fds)
				for _, p := range held {
					answer(p.id, p.peer)
				}
				answered += len(held)
				held = nil
				raw.SetReadDeadline(time.Time{})
				continue
			} else if err != nil {
				return
			}
			if _, err := wire.DecodeRequestKey(buf[:n], &req); err != nil {
				continue
			}
			peers[peer] = true
			switch {
			case r.held < maxSockets:
				held = append(held, pending{req.ID, peer})
				if r.held++; r.held == maxSockets {
					raw.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
				}
			case held != nil:
				r.early++ // a request beyond the bound while every socket is held
				held = append(held, pending{req.ID, peer})
			default:
				answer(req.ID, peer)
				answered++
			}
		}
		r.peers = len(peers)
		done <- r
	}()
	c, err := Dial(raw.LocalAddr().String(), Config{Timeout: 10 * time.Second, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < exchanges; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := c.Do(wire.Request{Key: "alice", Cost: 1}); err != nil || !resp.Allow {
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d of %d exchanges failed", f, exchanges)
	}
	r := <-done
	if r.early != 0 {
		t.Errorf("%d requests arrived while %d sockets were held, want none", r.early, maxSockets)
	}
	if r.peers > maxSockets {
		t.Errorf("%d sockets sent %d exchanges, bound %d", r.peers, exchanges, maxSockets)
	}
	if open := r.fds - base; open != maxSockets {
		t.Errorf("%d sockets open with every socket held, want %d", open, maxSockets)
	}
	if idle := openFDs(t) - base; idle > maxSockets {
		t.Errorf("%d sockets open once idle, bound %d", idle, maxSockets)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openFDs(t); n != base {
		t.Errorf("%d descriptors open after Close, %d before Dial", n, base)
	}
}

// TestCloseDuringExchanges: Close while exchanges run ends every later one
// with net.ErrClosed, and each socket is closed, whether it was idle at
// Close or came back from an exchange after it.
func TestCloseDuringExchanges(t *testing.T) {
	addr := oldServer(t)
	base := openFDs(t)
	c, err := Dial(addr, genericCfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var unexpected atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := c.Do(wire.Request{Key: "alice", Cost: 1})
				if errors.Is(err, net.ErrClosed) {
					return
				}
				if err != nil {
					unexpected.Add(1)
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if n := unexpected.Load(); n != 0 {
		t.Errorf("%d exchanges failed with an error other than net.ErrClosed", n)
	}
	if n := openFDs(t); n != base {
		t.Errorf("%d descriptors open after Close, %d before Dial", n, base)
	}
}

// TestWaitForASocketKeepsTheBudget: an exchange that finds every socket in
// use waits for one only inside its own Retries × Timeout budget, and then
// fails with ErrTimeout.
func TestWaitForASocketKeepsTheBudget(t *testing.T) {
	laddr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	raw, err := net.ListenUDP("udp", laddr) // never answers
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const budget = 2 * 100 * time.Millisecond
	c, err := Dial(raw.LocalAddr().String(), Config{Timeout: 100 * time.Millisecond, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	held := make([]*socket, 0, maxSockets)
	for i := 0; i < maxSockets; i++ {
		s, err := c.take(time.Now().Add(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, s)
	}
	start := time.Now()
	_, attempts, err := c.DoAttempts(wire.Request{Key: "alice", Cost: 1})
	if el := time.Since(start); !errors.Is(err, ErrTimeout) || attempts != 0 || el < budget || el > budget+budget/2 {
		t.Errorf("with every socket held: attempts=%d err=%v after %v, want ErrTimeout after no attempt and about %v", attempts, err, el, budget)
	}
	for _, s := range held {
		c.give(s)
	}
}

// TestResponseHeadroom: a newer server may append up to 64 bytes of
// sections to the longest response frame (wire.MaxResponseDatagram), and
// the client still reads the reply; one byte more and the reply is lost.
func TestResponseHeadroom(t *testing.T) {
	for _, tc := range []struct {
		extra  int
		answer bool
	}{{0, true}, {64, true}, {65, false}} {
		laddr, _ := net.ResolveUDPAddr("udp", "127.0.0.1:0")
		raw, err := net.ListenUDP("udp", laddr)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			var req wire.Request
			buf := make([]byte, 65536)
			for {
				n, peer, err := raw.ReadFromUDPAddrPort(buf)
				if err != nil {
					return
				}
				if _, err := wire.DecodeRequestKey(buf[:n], &req); err != nil {
					continue
				}
				// The longest frame this version writes (a traced one),
				// then tc.extra bytes of a section it does not know, sealed
				// again: the CRC32 at [12:16] covers [16:].
				out, _ := wire.AppendResponse(nil, wire.Response{ID: req.ID, Allow: true, TraceID: 7})
				out = append(out, make([]byte, tc.extra)...)
				binary.BigEndian.PutUint32(out[12:], crc32.ChecksumIEEE(out[16:]))
				raw.WriteToUDPAddrPort(out, peer)
			}
		}()
		c, err := Dial(raw.LocalAddr().String(), Config{Timeout: 50 * time.Millisecond, Retries: 2})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Do(wire.Request{Key: "alice", Cost: 1})
		if got := err == nil && resp.Allow; got != tc.answer {
			t.Errorf("%d bytes appended: resp=%+v err=%v, want answered %v", tc.extra, resp, err, tc.answer)
		}
		c.Close()
		raw.Close()
	}
}

// TestRecvDelayStallsOnlyItsExchange: a reply held up on its way in (the
// transport/client/recv failpoint's Delay) delays its own exchange and no
// other exchange on the same client.
func TestRecvDelayStallsOnlyItsExchange(t *testing.T) {
	const delay = 500 * time.Millisecond
	c, err := Dial(oldServer(t), Config{Timeout: 2 * time.Second, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	hits := fpClientRecv.Hits()
	arm(t, "transport/client/recv", failpoint.Action{Kind: failpoint.Delay, Delay: delay, Count: 1})
	slow := make(chan error, 1)
	go func() {
		start := time.Now()
		resp, err := c.Do(wire.Request{Key: "alice", Cost: 1})
		if err == nil && (!resp.Allow || time.Since(start) < delay) {
			err = fmt.Errorf("resp=%+v after %v, want allow after at least %v", resp, time.Since(start), delay)
		}
		slow <- err
	}()
	for fpClientRecv.Hits() == hits {
		time.Sleep(time.Millisecond)
	}
	// The first exchange is now asleep on its reply.
	start := time.Now()
	resp, err := c.Do(wire.Request{Key: "alice", Cost: 1})
	if el := time.Since(start); err != nil || !resp.Allow || el > delay/2 {
		t.Errorf("concurrent exchange: resp=%+v err=%v after %v; the delayed reply held it up", resp, err, el)
	}
	if err := <-slow; err != nil {
		t.Errorf("delayed exchange: %v", err)
	}
}

// TestClientOutlivesARefusal: an exchange with a port nothing listens on
// times out (each refusal the kernel reports on the connected socket counts
// as a lost datagram), and the first exchange once a server binds that port
// is answered, even with a refusal still queued on its socket, however many
// times the server comes and goes.
func TestClientOutlivesARefusal(t *testing.T) {
	free, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := free.LocalAddr().String()
	free.Close()
	c, err := Dial(addr, Config{Timeout: 20 * time.Millisecond, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 3; round++ {
		if _, err := c.Do(wire.Request{Key: "alice", Cost: 1}); !errors.Is(err, ErrTimeout) {
			t.Fatalf("round %d, no server on the port: err=%v, want ErrTimeout", round, err)
		}
		// Leave a refusal queued on the idle socket, so that the next
		// exchange's first send is the call that reports it.
		s, err := c.take(time.Now().Add(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		s.conn.Write([]byte("stray"))
		time.Sleep(10 * time.Millisecond)
		c.give(s)
		srv, err := NewServer(addr, echoHandler)
		if err != nil {
			t.Skipf("port %s taken meanwhile: %v", addr, err)
		}
		resp, err := c.Do(wire.Request{Key: "alice", Cost: 1})
		srv.Close()
		if err != nil || !resp.Allow {
			t.Fatalf("round %d, first exchange once the server is up: resp=%+v err=%v", round, resp, err)
		}
	}
}
