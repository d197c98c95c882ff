package membership

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/tick"
)

// Failpoints on the client side of the coordinator API (peer = coordinator
// endpoint). Cutting heartbeats gets a member TTL-ejected; cutting view
// fetches freezes a router or beater at its last adopted epoch — the
// coordinator-partition scenario of the chaos suite.
var (
	fpHeartbeatSend = failpoint.New("membership/heartbeat/send")
	fpViewFetch     = failpoint.New("membership/view/fetch")
)

// HTTP endpoints served by a coordinator Service and spoken by Client.
const (
	ViewPath      = "/membership/v1/view"
	HeartbeatPath = "/membership/v1/heartbeat"
)

// Handler exposes a coordinator over HTTP:
//
//	GET  /membership/v1/view                 → current View (JSON)
//	POST /membership/v1/heartbeat?name=N&addr=A → heartbeat/join,
//	     responds with the resulting View (JSON)
//
// Heartbeats double as registration, so a QoS server joins a cluster by
// simply beating against the coordinator. Other query parameters (a
// "weight" sent by an older member) are ignored.
func Handler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(ViewPath, func(w http.ResponseWriter, req *http.Request) {
		writeView(w, c.View())
	})
	mux.HandleFunc(HeartbeatPath, func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		q := req.URL.Query()
		name := q.Get("name")
		if name == "" {
			http.Error(w, "name required", http.StatusBadRequest)
			return
		}
		writeView(w, c.heartbeat(name, q.Get("addr")))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok")
	})
	return mux
}

func writeView(w http.ResponseWriter, v View) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Service is a coordinator listening on HTTP.
type Service struct {
	c      *Coordinator
	ln     net.Listener
	server *http.Server
	wg     sync.WaitGroup
}

// NewService starts an HTTP front end for c on addr ("127.0.0.1:0" for
// ephemeral).
func NewService(c *Coordinator, addr string) (*Service, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("membership: listen %s: %w", addr, err)
	}
	s := &Service{c: c, ln: ln, server: &http.Server{Handler: Handler(c)}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.server.Serve(ln)
	}()
	return s, nil
}

// Addr returns the HTTP address the service listens on.
func (s *Service) Addr() string { return s.ln.Addr().String() }

// Close shuts the HTTP front end down (the coordinator itself is left
// running; close it separately).
func (s *Service) Close() error {
	err := s.server.Close()
	s.wg.Wait()
	return err
}

// Client speaks the coordinator HTTP API.
type Client struct {
	// Endpoint is the coordinator host:port (no scheme).
	Endpoint string
	// HTTPClient overrides the default http.Client when non-nil.
	HTTPClient *http.Client
}

func (cl *Client) http() *http.Client {
	if cl.HTTPClient != nil {
		return cl.HTTPClient
	}
	return &http.Client{Timeout: 2 * time.Second}
}

// FetchView retrieves the coordinator's current view.
func (cl *Client) FetchView() (View, error) {
	if fpViewFetch.Armed() {
		switch o := fpViewFetch.EvalPeer(cl.Endpoint); o.Kind {
		case failpoint.Error, failpoint.Partition:
			return View{}, o.Err
		case failpoint.Drop:
			return View{}, fmt.Errorf("membership: view fetch from %s dropped by failpoint", cl.Endpoint)
		case failpoint.Delay:
			o.Sleep()
		}
	}
	resp, err := cl.http().Get("http://" + cl.Endpoint + ViewPath)
	if err != nil {
		return View{}, err
	}
	defer resp.Body.Close()
	return decodeView(resp)
}

// heartbeat sends one heartbeat for member name (registering it on first
// contact) and returns the coordinator's resulting view.
func (cl *Client) heartbeat(name, addr string) (View, error) {
	if fpHeartbeatSend.Armed() {
		switch o := fpHeartbeatSend.EvalPeer(cl.Endpoint); o.Kind {
		case failpoint.Error, failpoint.Partition:
			return View{}, o.Err
		case failpoint.Drop:
			return View{}, fmt.Errorf("membership: heartbeat to %s dropped by failpoint", cl.Endpoint)
		case failpoint.Delay:
			o.Sleep()
		}
	}
	q := url.Values{"name": {name}}
	if addr != "" {
		q.Set("addr", addr)
	}
	resp, err := cl.http().Post("http://"+cl.Endpoint+HeartbeatPath+"?"+q.Encode(), "text/plain", nil)
	if err != nil {
		return View{}, err
	}
	defer resp.Body.Close()
	return decodeView(resp)
}

func decodeView(resp *http.Response) (View, error) {
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return View{}, fmt.Errorf("membership: coordinator: %s: %s", resp.Status, body)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return View{}, fmt.Errorf("membership: decode view: %w", err)
	}
	return v, nil
}

// Beater periodically heartbeats one member against a coordinator; QoS
// server nodes run one to stay in the view.
type Beater struct {
	client   *Client
	name     string
	addr     string
	interval time.Duration

	// lastOKNs is the wall time of the last heartbeat the coordinator
	// acknowledged — the readiness probe's staleness input (a member whose
	// beats stop landing is about to be ejected from the view).
	lastOKNs atomic.Int64

	loop *tick.Loop // nil until Start succeeds
}

// NewBeater creates a beater for member name with handoff address addr.
// interval <= 0 selects 1s.
func NewBeater(client *Client, name, addr string, interval time.Duration) *Beater {
	if interval <= 0 {
		interval = time.Second
	}
	return &Beater{client: client, name: name, addr: addr, interval: interval}
}

// Start sends the first heartbeat synchronously (so the member is
// registered when Start returns) and then beats in the background. When
// that heartbeat fails, nothing runs in the background.
func (b *Beater) Start() error {
	if err := b.beat(); err != nil {
		return err
	}
	b.loop = tick.Every(b.interval, func() { _ = b.beat() }) // a missed beat shows in ContactAge
	return nil
}

func (b *Beater) beat() error {
	if _, err := b.client.heartbeat(b.name, b.addr); err != nil {
		return err
	}
	b.lastOKNs.Store(time.Now().UnixNano())
	return nil
}

// ContactAge reports how long ago the coordinator last acknowledged a
// heartbeat (zero before Start succeeds).
func (b *Beater) ContactAge() time.Duration {
	at := b.lastOKNs.Load()
	if at == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - at)
}

// Interval returns the configured heartbeat interval.
func (b *Beater) Interval() time.Duration { return b.interval }

// Stop halts the beater; the member will be ejected once its TTL expires.
func (b *Beater) Stop() { b.loop.Stop() }

// Poller periodically fetches the coordinator view and invokes a callback
// whenever the epoch advances; router nodes run one to hot-swap their view.
type Poller struct {
	client   *Client
	interval time.Duration
	onView   func(View)

	mu    sync.Mutex
	epoch uint64
	seen  bool

	// lastOKNs is the wall time of the last successful view fetch — the
	// router readiness probe's staleness input (a router that cannot reach
	// its coordinator is routing on a potentially obsolete view).
	lastOKNs atomic.Int64

	loop *tick.Loop // nil until Start succeeds
}

// NewPoller creates a poller invoking onView on every epoch change.
// interval <= 0 selects 1s.
func NewPoller(client *Client, interval time.Duration, onView func(View)) *Poller {
	if interval <= 0 {
		interval = time.Second
	}
	return &Poller{client: client, interval: interval, onView: onView}
}

// Start fetches the first view synchronously (delivering it to the
// callback) and then polls in the background. When that fetch fails,
// nothing runs in the background.
func (p *Poller) Start() error {
	if err := p.pollOnce(); err != nil {
		return err
	}
	p.loop = tick.Every(p.interval, func() { _ = p.pollOnce() }) // a failed poll shows in ContactAge
	return nil
}

// pollOnce fetches the view once, invoking the callback if the epoch moved.
func (p *Poller) pollOnce() error {
	v, err := p.client.FetchView()
	if err != nil {
		return err
	}
	p.lastOKNs.Store(time.Now().UnixNano())
	p.mu.Lock()
	fresh := !p.seen || v.Epoch > p.epoch
	if fresh {
		p.seen = true
		p.epoch = v.Epoch
	}
	p.mu.Unlock()
	if fresh {
		p.onView(v)
	}
	return nil
}

// ContactAge reports how long ago a view fetch last succeeded (zero before
// the first success).
func (p *Poller) ContactAge() time.Duration {
	at := p.lastOKNs.Load()
	if at == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - at)
}

// Interval returns the configured poll interval.
func (p *Poller) Interval() time.Duration { return p.interval }

// Stop halts the poller.
func (p *Poller) Stop() { p.loop.Stop() }
