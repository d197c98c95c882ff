package repro

// End-to-end integration of the command-line binaries: build janus-dbd,
// janusd, janus-router and janus-lb, wire them into the paper's four-layer
// deployment as separate OS processes, and drive admission checks through
// the full stack over real sockets.

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/minisql"
	"repro/internal/proctest"
	"repro/internal/store"
)

// buildBinaries compiles the daemons once per test run.
func buildBinaries(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level integration in -short mode")
	}
	bins := buildBinaries(t, "janus-dbd", "janusd", "janus-router", "janus-lb")

	dbAddr := proctest.Start(t, bins["janus-dbd"], "-addr", proctest.AnyPort).Addr(t, "master")

	// Install the test rules through the real TCP client.
	pool := minisql.NewPool(dbAddr, 2)
	defer pool.Close()
	st := store.New(pool)
	if err := st.Init(); err != nil {
		t.Fatal(err)
	}
	if err := st.PutAll([]bucket.Rule{
		{Key: "alice", RefillRate: 0, Capacity: 5, Credit: 5},
		{Key: "bob", RefillRate: 1000, Capacity: 1000, Credit: 1000},
	}); err != nil {
		t.Fatal(err)
	}

	// QoS server layer (2 partitions).
	var qos []string
	for i := 0; i < 2; i++ {
		d := proctest.Start(t, bins["janusd"], "-addr", proctest.AnyPort, "-db", dbAddr, "-sync", "0", "-checkpoint", "0")
		qos = append(qos, d.Addr(t, "QoS server"))
	}

	// Router layer (generous timeout: cross-process loopback).
	routerAddr := proctest.Start(t, bins["janus-router"], "-addr", proctest.AnyPort,
		"-backends", strings.Join(qos, ","), "-timeout", "50ms", "-retries", "5").Addr(t, "request router")

	// Gateway LB.
	lbAddr := proctest.Start(t, bins["janus-lb"], "-addr", proctest.AnyPort, "-backends", routerAddr).Addr(t, "gateway load balancer")

	check := func(key string) (bool, error) {
		resp, err := http.Get(fmt.Sprintf("http://%s/qos?key=%s", lbAddr, key))
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, body)
		}
		return string(body) == "true", nil
	}

	// The stack may need a beat for UDP sockets; retry the first check.
	var ok bool
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok, err = check("alice")
		if err == nil && ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first check never succeeded: ok=%v err=%v", ok, err)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// alice: 5 credits total; one consumed above.
	allowed := 1
	for i := 0; i < 7; i++ {
		ok, err := check("alice")
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			allowed++
		}
	}
	if allowed != 5 {
		t.Fatalf("alice admitted %d, want 5", allowed)
	}

	// bob: high rate, always admitted.
	for i := 0; i < 10; i++ {
		ok, err := check("bob")
		if err != nil || !ok {
			t.Fatalf("bob request %d: ok=%v err=%v", i, ok, err)
		}
	}

	// Unknown keys denied (default deny-all rule).
	if ok, err := check("stranger"); err != nil || ok {
		t.Fatalf("stranger: ok=%v err=%v", ok, err)
	}
}

// TestJanusBenchPrintsRealPathFigures runs the experiment harness over the
// two quick real-path figures so its printer cannot rot silently (the
// figures' shapes are internal/experiments' tests), and pins the ids.
func TestJanusBenchPrintsRealPathFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level integration in -short mode")
	}
	bin := buildBinaries(t, "janus-bench")["janus-bench"]

	out, err := exec.Command(bin, "-run", "fig5,fig6", "-fig5-requests", "500", "-fig6-keys", "50000").CombinedOutput()
	if err != nil {
		t.Fatalf("janus-bench -run fig5,fig6: %v\n%s", err, out)
	}
	for _, want := range []string{
		"2 single-thread clients × 500 requests each", "Gateway LB", "average", "P99.9",
		"50000 keys per population across 20 QoS servers", "SequentialNumbers", "--- fig6 done",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	out, err = exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("janus-bench -list: %v", err)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	const want = "table1 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13a fig13b headline latency faillocal dnsskew"
	if got := strings.Join(ids, " "); got != want {
		t.Errorf("experiment ids = %s\nwant %s", got, want)
	}
}
