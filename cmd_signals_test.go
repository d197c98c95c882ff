package repro

// Signal handling of the built daemons. All five share one signal loop
// (internal/daemon): SIGUSR1 promotes a follower once and never shuts a
// daemon down, SIGQUIT writes the flight recorder to stderr and keeps the
// daemon serving, and SIGTERM ends it with status 0 after its shutdown line.
// Before its first listener is up, SIGTERM ends a daemon at once, status 0.

import (
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/minisql"
	"repro/internal/proctest"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestDaemonSignals(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping process-level integration in -short mode")
	}
	bins := buildBinaries(t, "janus-dbd", "janusd", "janus-router", "janus-lb", "janus-coordinator")
	start := func(name string, args ...string) *proctest.Daemon {
		return proctest.Start(t, bins[name], append([]string{"-addr", proctest.AnyPort}, args...)...)
	}
	db := start("janus-dbd", "-seed", "10")
	standby := start("janus-dbd", "-follow", db.Addr(t, "master"))
	qos := start("janusd", "-repl", proctest.AnyPort, "-sync", "0", "-checkpoint", "0")
	slave := start("janusd", "-follow", qos.Addr(t, "HA replication"), "-sync", "0", "-checkpoint", "0")
	router := start("janus-router", "-backends", qos.Addr(t, "QoS server"), "-timeout", "50ms")
	lb := start("janus-lb", "-backends", router.Addr(t, "request router"))
	coord := start("janus-coordinator")

	get := func(path string) func(*testing.T, string) {
		return func(t *testing.T, addr string) { httpGet(t, "http://"+addr+path) }
	}
	decide := func(t *testing.T, addr string) {
		cl, err := transport.Dial(addr, transport.Config{Timeout: 50 * time.Millisecond, Retries: 5})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, err := cl.Do(wire.Request{Key: "k", Cost: 1}); err != nil {
			t.Fatalf("decision from %s: %v", addr, err)
		}
	}
	query := func(t *testing.T, addr string) {
		pool := minisql.NewPool(addr, 1)
		defer pool.Close()
		if _, err := store.New(pool).Count(); err != nil {
			t.Fatalf("SELECT on %s: %v", addr, err)
		}
	}

	// Each daemon is stopped before the ones it calls.
	for _, tc := range []struct {
		name     string
		d        *proctest.Daemon
		what     string                   // the listener it answers on
		answers  func(*testing.T, string) // fails unless the listener answers
		promotes bool                     // the first SIGUSR1 promotes it
		shutdown string                   // from its last lines
	}{
		{"janus-lb", lb, "gateway load balancer", get("/qos?key=k"), false, "requests="},
		{"janus-router", router, "request router", get("/healthz"), false, "requests="},
		{"janusd -follow", slave, "QoS server", decide, true, "decisions="},
		{"janusd", qos, "QoS server", decide, false, "decisions="},
		{"janus-dbd -follow", standby, "standby", query, true, "rules at shutdown"},
		{"janus-dbd", db, "master", query, false, "rules at shutdown"},
		{"janus-coordinator", coord, "membership coordinator", get("/membership/v1/view"), false, "shutdown at epoch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := tc.d.Addr(t, tc.what)
			signal := func(sig os.Signal) {
				if err := tc.d.Cmd.Process.Signal(sig); err != nil {
					t.Fatalf("%v: %v", sig, err)
				}
			}
			if tc.promotes {
				signal(syscall.SIGUSR1)
				tc.d.Logged(t, "promoted")
			}
			signal(syscall.SIGUSR1)
			tc.d.Logged(t, "SIGUSR1 ignored")
			signal(syscall.SIGQUIT)
			tc.d.Logged(t, `"recorded"`)
			tc.answers(t, addr)

			signal(syscall.SIGTERM)
			if code := tc.d.Exited(); code != 0 {
				t.Fatalf("exit status %d after SIGTERM, want 0", code)
			}
			tc.d.Logged(t, tc.shutdown)
		})
	}

	t.Run("janus-router during start-up", func(t *testing.T) {
		// Nothing answers on port 1: the router waits for a first view.
		d := start("janus-router", "-coordinator", "127.0.0.1:1")
		time.Sleep(time.Second)
		if err := d.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		sent := time.Now()
		code := d.Exited()
		if took := time.Since(sent); took > 5*time.Second {
			t.Fatalf("exited %v after SIGTERM, want within 5s", took)
		}
		if code != 0 {
			t.Fatalf("exit status %d after SIGTERM, want 0", code)
		}
		d.Logged(t, "SIGTERM during start-up")
	})
}
