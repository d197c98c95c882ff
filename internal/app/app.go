// Package app is the photo-sharing web application used by the paper's
// application-integration evaluation (§IV, §V-D). Its index page performs
// exactly the paper's four steps:
//
//	(a) obtain the IP address of the end user,
//	(b) connect to a Memcached server for session sharing,
//	(c) connect to a MySQL server to query for the latest N user-uploaded
//	    images,
//	(d) generate the HTML response from the query results.
//
// With QoS enabled, the admission check (QoS key = client IP) runs before
// step (b), via the wrapper in internal/client — mirroring the PHP snippet
// in the paper verbatim.
package app

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/memcache"
	"repro/internal/minisql"
)

// Config assembles the application's dependencies.
type Config struct {
	// Addr is the HTTP listen address.
	Addr string
	// MemcacheAddr is the session server.
	MemcacheAddr string
	// DB executes SQL against the photo database.
	DB Executor
	// QoS, when non-nil, guards the index page; nil deploys without QoS
	// support (the paper's Fig 4a baseline).
	QoS *client.Client
	// LatestN is the number of photos the index page shows (default 10).
	LatestN int
	// SessionTTL is the memcached session lifetime in seconds.
	SessionTTL int64
}

// Executor matches minisql's engine/client/pool Execute signature.
type Executor interface {
	Execute(sql string, args ...minisql.Value) (minisql.Result, error)
}

// Photo is one photo row.
type Photo struct {
	ID       int64
	Owner    string
	Title    string
	Uploaded int64
}

// App is the running application.
type App struct {
	cfg    Config
	ln     net.Listener
	server *http.Server

	mcMu sync.Mutex
	mc   *memcache.Client

	nextID sync.Mutex
	idHint int64

	wg sync.WaitGroup
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>Janus Photo Share</title></head>
<body>
<h1>Latest photos</h1>
<p>session {{.Session}} · {{.Visits}} visits</p>
<ul>
{{range .Photos}}<li>#{{.ID}} <b>{{.Title}}</b> by {{.Owner}}</li>
{{end}}</ul>
</body></html>
`))

// initSchema creates the photos table.
func initSchema(db Executor) error {
	_, err := db.Execute(`CREATE TABLE IF NOT EXISTS photos (id INT PRIMARY KEY, owner TEXT, title TEXT, uploaded INT)`)
	return err
}

// New starts the application server.
func New(cfg Config) (*App, error) {
	if cfg.LatestN <= 0 {
		cfg.LatestN = 10
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 3600
	}
	if err := initSchema(cfg.DB); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("app: listen %s: %w", cfg.Addr, err)
	}
	a := &App{cfg: cfg, ln: ln}
	mc, err := memcache.Dial(cfg.MemcacheAddr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	a.mc = mc

	mux := http.NewServeMux()
	var index http.Handler = http.HandlerFunc(a.handleIndex)
	var upload http.Handler = http.HandlerFunc(a.handleUpload)
	if cfg.QoS != nil {
		// The paper's wrapper: QoS check (key = REMOTE_ADDR, or the
		// X-Forwarded-For set by a test client) before the original page.
		index = cfg.QoS.Wrap(clientIP, index)
		upload = cfg.QoS.Wrap(clientIP, upload)
	}
	mux.Handle("/", index)
	mux.Handle("/upload", upload)
	a.server = &http.Server{Handler: mux}
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		a.server.Serve(ln)
	}()
	return a, nil
}

// Addr returns the application's HTTP address.
func (a *App) Addr() string { return a.ln.Addr().String() }

type session struct {
	IP     string `json:"ip"`
	Visits int64  `json:"visits"`
	Since  int64  `json:"since"`
}

// loadSession implements step (b): a memcached round trip per request.
func (a *App) loadSession(ip string) (session, error) {
	a.mcMu.Lock()
	defer a.mcMu.Unlock()
	key := "session:" + ip
	var s session
	raw, err := a.mc.Get(key)
	switch err {
	case nil:
		if err := json.Unmarshal(raw, &s); err != nil {
			s = session{IP: ip, Since: time.Now().Unix()}
		}
	case memcache.ErrCacheMiss:
		s = session{IP: ip, Since: time.Now().Unix()}
	default:
		return session{}, err
	}
	s.Visits++
	buf, _ := json.Marshal(s)
	if err := a.mc.Set(key, buf, a.cfg.SessionTTL); err != nil {
		return session{}, err
	}
	return s, nil
}

// latestPhotos implements step (c).
func (a *App) latestPhotos() ([]Photo, error) {
	res, err := a.cfg.DB.Execute(`SELECT id, owner, title, uploaded FROM photos ORDER BY id DESC LIMIT ` + strconv.Itoa(a.cfg.LatestN))
	if err != nil {
		return nil, err
	}
	photos := make([]Photo, 0, len(res.Rows))
	for _, row := range res.Rows {
		photos = append(photos, Photo{
			ID:       row[0].AsInt(),
			Owner:    row[1].AsText(),
			Title:    row[2].AsText(),
			Uploaded: row[3].AsInt(),
		})
	}
	return photos, nil
}

func clientIP(r *http.Request) string {
	if fwd := r.Header.Get("X-Forwarded-For"); fwd != "" {
		return strings.TrimSpace(strings.Split(fwd, ",")[0])
	}
	return client.ByRemoteIP(r)
}

func (a *App) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	ip := clientIP(r) // step (a)
	s, err := a.loadSession(ip)
	if err != nil {
		http.Error(w, "session store unavailable", http.StatusInternalServerError)
		return
	}
	photos, err := a.latestPhotos()
	if err != nil {
		http.Error(w, "database unavailable", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	indexTemplate.Execute(w, struct { // step (d)
		Session string
		Visits  int64
		Photos  []Photo
	}{Session: s.IP, Visits: s.Visits, Photos: photos})
}

// handleUpload adds a photo row: POST /upload?owner=o&title=t.
func (a *App) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	owner := r.URL.Query().Get("owner")
	title := r.URL.Query().Get("title")
	if owner == "" || title == "" {
		http.Error(w, "owner and title required", http.StatusBadRequest)
		return
	}
	id, err := a.insertPhoto(owner, title)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "photo %d stored\n", id)
}

func (a *App) insertPhoto(owner, title string) (int64, error) {
	a.nextID.Lock()
	defer a.nextID.Unlock()
	// Allocate the next id from the table's current maximum; the single
	// app-side lock is the paper-era PHP pattern (auto-increment stand-in).
	if a.idHint == 0 {
		res, err := a.cfg.DB.Execute(`SELECT id FROM photos ORDER BY id DESC LIMIT 1`)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) > 0 {
			a.idHint = res.Rows[0][0].AsInt()
		}
	}
	for {
		a.idHint++
		_, err := a.cfg.DB.Execute(`INSERT INTO photos VALUES (?, ?, ?, ?)`,
			minisql.Int(a.idHint), minisql.Text(owner), minisql.Text(title), minisql.Int(time.Now().Unix()))
		if err == nil {
			return a.idHint, nil
		}
		if !strings.Contains(err.Error(), "duplicate primary key") {
			return 0, err
		}
		// Another app instance took this id; advance and retry.
	}
}

// Seed inserts n demo photos.
func Seed(db Executor, n int) error {
	if err := initSchema(db); err != nil {
		return err
	}
	owners := []string{"alice", "bob", "carol", "dave"}
	for i := 1; i <= n; i++ {
		_, err := db.Execute(`REPLACE INTO photos VALUES (?, ?, ?, ?)`,
			minisql.Int(int64(i)),
			minisql.Text(owners[i%len(owners)]),
			minisql.Text(fmt.Sprintf("Photo #%d", i)),
			minisql.Int(time.Now().Unix()))
		if err != nil {
			return err
		}
	}
	return nil
}

// Close shuts the application down.
func (a *App) Close() error {
	err := a.server.Close()
	a.wg.Wait()
	a.mc.Close()
	return err
}
