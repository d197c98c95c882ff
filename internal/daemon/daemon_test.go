package daemon

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"sync"
	"testing"
)

// TestListenAddrReadsListening: ListenAddr finds each listener that
// Listening reported, whatever follows the address, and no other line.
func TestListenAddrReadsListening(t *testing.T) {
	var out bytes.Buffer
	d := &Daemon{Log: log.New(&out, "janus-dbd ", log.LstdFlags|log.Lmicroseconds)}
	d.Log.Print("promoted to master (at master sequence 7)")
	d.Listening("standby", "tcp", "127.0.0.1:4001", "following %s", "127.0.0.1:4000")
	d.Listening("master", "tcp", "127.0.0.1:4002", "")
	d.Listening("QoS server", "udp", "[::1]:4003", "(workers=%d)", 2)
	for what, want := range map[string]string{
		"standby":    "127.0.0.1:4001",
		"master":     "127.0.0.1:4002",
		"QoS server": "[::1]:4003",
	} {
		if got, ok := ListenAddr(out.String(), what); !ok || got != want {
			t.Errorf("ListenAddr(%q) = %q, %v; want %q", what, got, ok, want)
		}
	}
	for _, what := range []string{"QoS", "metrics/debug", "to master"} {
		if got, ok := ListenAddr(out.String(), what); ok {
			t.Errorf("ListenAddr(%q) = %q, want none", what, got)
		}
	}
}

// TestThrottleConcurrent: a call site that many goroutines share writes one
// line for a burst, and every call is either written or counted in the next
// line written.
func TestThrottleConcurrent(t *testing.T) {
	var out bytes.Buffer
	l := log.New(&out, "", 0) // a Logger serializes its writes
	var th Throttle
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				th.Printf(l, "burst")
			}
		}()
	}
	wg.Wait()
	if lines := strings.Count(out.String(), "\n"); lines < 1 || lines > 2 {
		t.Fatalf("%d lines for a burst of 8000, want 1 (2 if it took over a second):\n%s", lines, out.String())
	}
	th.next.Store(0) // as if a second had passed
	th.Printf(l, "after")
	calls := 0
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		var n int
		if _, count, ok := strings.Cut(line, " ("); ok {
			if _, err := fmt.Sscanf(count, "%d more not logged)", &n); err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
		}
		calls += 1 + n
	}
	if calls != 8001 {
		t.Fatalf("lines account for %d calls, want 8001:\n%s", calls, out.String())
	}
}
