package failpoint

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Handler serves the failpoint registry over HTTP — the /debug/failpoints
// endpoint every daemon mounts through debugz:
//
//	GET  /debug/failpoints                     → JSON list of failpoints
//	POST /debug/failpoints?name=N&action=SPEC  → arm N (action=off disarms)
//	POST /debug/failpoints?all=off             → disarm everything
//
// SPEC uses the parseAction syntax. Responses to POST echo the updated list
// so a chaos harness can arm-and-verify in one exchange.
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeList(w)
		case http.MethodPost, http.MethodPut:
			if r.FormValue("all") == "off" {
				DisarmAll()
				writeList(w)
				return
			}
			name := r.FormValue("name")
			spec := r.FormValue("action")
			if name == "" || spec == "" {
				http.Error(w, "name and action required (or all=off)", http.StatusBadRequest)
				return
			}
			a, err := parseAction(spec)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := Arm(name, a); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			writeList(w)
		default:
			http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		}
	})
}

func writeList(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(List()); err != nil {
		// The header is already out; nothing more to do.
		return
	}
}

// Client arms failpoints in a remote process through its /debug/failpoints
// endpoint — the chaos harness's remote control for daemon processes.
type Client struct {
	// Endpoint is the daemon's debug host:port (no scheme).
	Endpoint string
	// HTTPClient overrides the default client when non-nil.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Arm arms name with the given action spec in the remote process.
func (c *Client) Arm(name, spec string) error {
	return c.post(fmt.Sprintf("http://%s/debug/failpoints?name=%s&action=%s",
		c.Endpoint, queryEscape(name), queryEscape(spec)))
}

// Disarm disarms name in the remote process.
func (c *Client) Disarm(name string) error { return c.Arm(name, "off") }

// DisarmAll disarms every failpoint in the remote process.
func (c *Client) DisarmAll() error {
	return c.post("http://" + c.Endpoint + "/debug/failpoints?all=off")
}

func (c *Client) post(url string) error {
	resp, err := c.httpClient().Post(url, "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("failpoint: remote arm: %s", resp.Status)
	}
	return nil
}

// queryEscape covers the characters that appear in action specs without
// pulling in net/url's full semantics (specs never contain '&' or '#').
func queryEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ':
			out = append(out, '+')
		case '+', '%', '&', '#', '=', ';', '?':
			out = append(out, '%', "0123456789ABCDEF"[c>>4], "0123456789ABCDEF"[c&15])
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
