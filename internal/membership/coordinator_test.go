package membership

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable clock for driving TTL expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestCoordinatorJoinLeaveEpochs(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	if v := c.View(); v.Epoch != 0 || len(v.Backends) != 0 {
		t.Fatalf("initial view = %+v", v)
	}
	v := c.Join("qos-0", "127.0.0.1:9000")
	if v.Epoch != 1 || len(v.Backends) != 1 || v.Backends[0] != "qos-0" {
		t.Fatalf("after join: %+v", v)
	}
	v = c.Join("qos-1", "127.0.0.1:9001")
	if v.Epoch != 2 || len(v.Backends) != 2 {
		t.Fatalf("after second join: %+v", v)
	}
	// Re-joining with identical state does not burn an epoch.
	if v = c.Join("qos-1", "127.0.0.1:9001"); v.Epoch != 2 {
		t.Fatalf("idempotent join bumped epoch: %+v", v)
	}
	if got := c.Addr("qos-1"); got != "127.0.0.1:9001" {
		t.Fatalf("Addr = %q", got)
	}
	v = c.Leave("qos-0")
	if v.Epoch != 3 || len(v.Backends) != 1 || v.Backends[0] != "qos-1" {
		t.Fatalf("after leave: %+v", v)
	}
	if v = c.Leave("ghost"); v.Epoch != 3 {
		t.Fatalf("leaving unknown member bumped epoch: %+v", v)
	}
}

func TestCoordinatorHeartbeatEjectionAndReadmission(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(CoordinatorConfig{TTL: time.Second, Clock: clk.now})
	defer c.Close()
	c.Join("qos-0", "a0")
	c.Join("qos-1", "a1")
	c.Join("qos-2", "a2")

	// qos-1 stops beating; the others keep beating.
	clk.advance(700 * time.Millisecond)
	c.heartbeat("qos-0", "")
	c.heartbeat("qos-2", "")
	clk.advance(700 * time.Millisecond)
	v := c.CheckNow()
	if len(v.Backends) != 2 || v.Backends[0] != "qos-0" || v.Backends[1] != "qos-2" {
		t.Fatalf("after ejection: %+v", v)
	}
	ejectEpoch := v.Epoch

	// Recovery: a heartbeat re-admits qos-1 in its original slot.
	v = c.heartbeat("qos-1", "a1-new")
	if v.Epoch != ejectEpoch+1 {
		t.Fatalf("re-admission epoch = %d, want %d", v.Epoch, ejectEpoch+1)
	}
	want := []string{"qos-0", "qos-1", "qos-2"}
	for i, name := range want {
		if v.Backends[i] != name {
			t.Fatalf("re-admitted order = %v, want %v", v.Backends, want)
		}
	}
	if got := c.Addr("qos-1"); got != "a1-new" {
		t.Fatalf("heartbeat did not refresh addr: %q", got)
	}
}

func TestCoordinatorHeartbeatRegistersUnknownMember(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	v := c.heartbeat("qos-7", "addr7")
	if v.Epoch != 1 || len(v.Backends) != 1 || v.Backends[0] != "qos-7" {
		t.Fatalf("heartbeat-join: %+v", v)
	}
	ms := c.Members()
	if len(ms) != 1 || !ms[0].Alive || ms[0].Addr != "addr7" {
		t.Fatalf("members = %+v", ms)
	}
}

func TestCoordinatorMonitorEjectsWithRealClock(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{TTL: 30 * time.Millisecond})
	defer c.Close()
	c.Join("qos-0", "")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.View().Backends) == 0 {
			return // ejected by the monitor goroutine
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("silent member never ejected")
}

func TestCoordinatorSubscribe(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	var mu sync.Mutex
	var epochs []uint64
	cancel := c.Subscribe(func(v View) {
		mu.Lock()
		epochs = append(epochs, v.Epoch)
		mu.Unlock()
	})
	c.Join("a", "")
	c.Join("b", "")
	cancel()
	c.Leave("a") // not delivered
	mu.Lock()
	defer mu.Unlock()
	want := []uint64{0, 1, 2}
	if len(epochs) != len(want) {
		t.Fatalf("epochs = %v, want %v", epochs, want)
	}
	for i := range want {
		if epochs[i] != want[i] {
			t.Fatalf("epochs = %v, want %v", epochs, want)
		}
	}
}

func TestViewClone(t *testing.T) {
	v := View{Epoch: 3, Backends: []string{"a", "b"}}
	cl := v.Clone()
	cl.Backends[0] = "z"
	if v.Backends[0] != "a" {
		t.Fatal("Clone shares backing arrays")
	}
}
