package failpoint

import (
	"encoding/json"
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
