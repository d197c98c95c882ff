package membership

import (
	"net/http"
	"sync"
	"testing"
	"time"
)

func newService(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *Service) {
	t.Helper()
	c := NewCoordinator(cfg)
	s, err := NewService(c, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		c.Close()
	})
	return c, s
}

func TestHTTPHeartbeatAndView(t *testing.T) {
	_, s := newService(t, CoordinatorConfig{})
	cl := &Client{Endpoint: s.Addr()}

	v, err := cl.heartbeat("qos-0", "127.0.0.1:9100")
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 1 || len(v.Backends) != 1 || v.Backends[0] != "qos-0" {
		t.Fatalf("heartbeat view = %+v", v)
	}
	v, err = cl.FetchView()
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 1 || v.Backends[0] != "qos-0" {
		t.Fatalf("fetched view = %+v", v)
	}
}

func TestHTTPHeartbeatValidation(t *testing.T) {
	c, s := newService(t, CoordinatorConfig{})
	// Missing name.
	resp, err := http.Post("http://"+s.Addr()+HeartbeatPath, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing name: status %d", resp.StatusCode)
	}
	// GET not allowed.
	resp, err = http.Get("http://" + s.Addr() + HeartbeatPath + "?name=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET heartbeat: status %d", resp.StatusCode)
	}
	// A weight, sent by an older member, is ignored: a plain heartbeat.
	resp, err = http.Post("http://"+s.Addr()+HeartbeatPath+"?name=x&weight=-3", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v := c.View(); resp.StatusCode != http.StatusOK || len(v.Backends) != 1 {
		t.Fatalf("weighted heartbeat: status %d, view %+v", resp.StatusCode, v)
	}
}

func TestBeaterKeepsMemberAlive(t *testing.T) {
	c, s := newService(t, CoordinatorConfig{TTL: 80 * time.Millisecond})
	cl := &Client{Endpoint: s.Addr()}
	b := NewBeater(cl, "qos-0", "127.0.0.1:9100", 10*time.Millisecond)
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // several TTLs with the beater running
	if v := c.View(); len(v.Backends) != 1 {
		t.Fatalf("member ejected while beating: %+v", v)
	}
	b.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.View().Backends) == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("member not ejected after beater stopped")
}

// TestStopAfterFailedStart stops a Beater and a Poller whose Start failed
// against an endpoint nothing listens on: no loop runs, so Stop has nothing
// to wait for and must return at once.
func TestStopAfterFailedStart(t *testing.T) {
	cl := &Client{Endpoint: "127.0.0.1:1"}
	b := NewBeater(cl, "qos-0", "", time.Millisecond)
	p := NewPoller(cl, time.Millisecond, func(View) {})
	for _, c := range []struct {
		name string
		s    interface {
			Start() error
			Stop()
		}
	}{{"Beater", b}, {"Poller", p}} {
		name, s := c.name, c.s
		if err := s.Start(); err == nil {
			t.Fatalf("%s.Start against a dead endpoint succeeded", name)
		}
		stopped := make(chan struct{})
		go func() {
			s.Stop()
			close(stopped)
		}()
		select {
		case <-stopped:
		case <-time.After(time.Second):
			t.Fatalf("%s.Stop hangs after a failed Start", name)
		}
	}
}

func TestPollerDeliversEpochChanges(t *testing.T) {
	c, s := newService(t, CoordinatorConfig{})
	c.Join("qos-0", "")
	cl := &Client{Endpoint: s.Addr()}
	var mu sync.Mutex
	var got []uint64
	p := NewPoller(cl, 10*time.Millisecond, func(v View) {
		mu.Lock()
		got = append(got, v.Epoch)
		mu.Unlock()
	})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	c.Join("qos-1", "")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 2 || got[0] != 1 || got[len(got)-1] != 2 {
		t.Fatalf("poller epochs = %v, want [1 2]", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("poller delivered non-monotonic epochs: %v", got)
		}
	}
}
