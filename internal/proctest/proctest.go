// Package proctest runs the module's daemons as child processes for
// process-level tests.
//
// Every daemon logs each listener it bound in one form, "<what> on
// <scheme>://<addr>" (for example "QoS server on udp://127.0.0.1:41234"), so
// a test passes port 0 to every listen flag and reads the bound addresses
// back with Addr. No port is chosen before the daemon binds it, so parallel
// test packages cannot race for one.
package proctest

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// AnyPort is the listen address to give every listen flag: loopback, port
// chosen by the kernel.
const AnyPort = "127.0.0.1:0"

// Daemon is one running binary with its stderr captured.
type Daemon struct {
	Cmd    *exec.Cmd
	stderr lockedBuffer
	exited chan struct{}
}

// Start runs bin with args. The process is killed when the test ends, and
// its stderr is printed if the test failed.
func Start(t testing.TB, bin string, args ...string) *Daemon {
	t.Helper()
	d := &Daemon{Cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.Cmd.Stderr = &d.stderr
	if err := d.Cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	go func() {
		_ = d.Cmd.Wait() // returns once stderr is copied out
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.Stop()
		if t.Failed() {
			t.Logf("--- %s %s stderr ---\n%s", filepath.Base(bin), strings.Join(args, " "), d.stderr.String())
		}
	})
	return d
}

// Addr waits up to 10 s for the daemon to log the listener named what, and
// returns its address. It fails the test if the daemon exits first.
func (d *Daemon) Addr(t testing.TB, what string) string {
	t.Helper()
	re := regexp.MustCompile(regexp.QuoteMeta(" "+what+" on ") + `[a-z]+://(\S+)`)
	deadline := time.After(10 * time.Second)
	for over := false; ; {
		if m := re.FindStringSubmatch(d.stderr.String()); m != nil {
			return m[1]
		}
		if over {
			t.Fatalf("%s never logged %q on an address", filepath.Base(d.Cmd.Path), what)
		}
		select {
		case <-d.exited:
			over = true
		case <-deadline:
			over = true
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Stop kills the process and waits for it; it is safe to call more than
// once.
func (d *Daemon) Stop() {
	_ = d.Cmd.Process.Kill()
	<-d.exited
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
