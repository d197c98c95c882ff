// Command janus-top is a live terminal console for a Janus cluster: it
// polls every node's /metrics and /debug/audit pages and renders per-tier
// throughput, the QoS servers' per-stage sojourn decomposition,
// admission-audit verdicts, and membership epoch skew — the
// operator's one-screen answer to "where is the overload?".
//
// Targets are the daemons' -metrics-addr endpoints, any mix of tiers; the
// tier of each node is inferred from the metric families it exports.
//
// Example:
//
//	janus-top -targets 127.0.0.1:9191,127.0.0.1:9192,127.0.0.1:9193 -interval 2s
//	janus-top -targets 127.0.0.1:9191 -once          # one frame, no screen control
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/promtext"
)

func main() {
	var (
		targets  = flag.String("targets", "", "comma-separated daemon metrics addresses (host:port)")
		interval = flag.Duration("interval", 2*time.Second, "poll interval")
		once     = flag.Bool("once", false, "render a single frame and exit (two polls for rates)")
		width    = flag.Int("width", 40, "bar chart width in characters")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "janus-top ", 0)
	if *targets == "" {
		logger.Fatal("-targets is required (comma-separated metrics addresses)")
	}
	addrs := strings.Split(*targets, ",")
	client := &http.Client{Timeout: 2 * time.Second}

	prev := map[string]nodeView{}
	prevAt := time.Now()
	for i := 0; ; i++ {
		cur := scrapeAll(client, addrs)
		now := time.Now()
		frame := render(cur, prev, now.Sub(prevAt), *width)
		prev = map[string]nodeView{}
		for _, n := range cur {
			prev[n.Target] = n
		}
		prevAt = now
		if *once {
			// Rates need two polls; take the second immediately after one
			// interval so a single-shot invocation still shows throughput.
			if i == 1 {
				fmt.Print(frame)
				return
			}
		} else {
			// In-place refresh: clear, home, draw.
			fmt.Print("\x1b[2J\x1b[H" + frame)
		}
		time.Sleep(*interval)
	}
}

// scrapeAll polls every target concurrently and returns the views sorted
// lb → router → qos → coordinator, then by address, so the frame layout is
// stable across refreshes.
func scrapeAll(client *http.Client, addrs []string) []nodeView {
	views := make([]nodeView, len(addrs))
	var wg sync.WaitGroup
	for i, a := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			views[i] = scrape(client, strings.TrimSpace(addr))
		}(i, a)
	}
	wg.Wait()
	tierRank := map[string]int{"lb": 0, "router": 1, "qos": 2, "coordinator": 3}
	sort.SliceStable(views, func(i, j int) bool {
		ri, rj := tierRank[views[i].Tier], tierRank[views[j].Tier]
		if ri != rj {
			return ri < rj
		}
		return views[i].Target < views[j].Target
	})
	return views
}

// scrape fetches one node's /metrics and, when present, /debug/audit.
func scrape(client *http.Client, addr string) nodeView {
	n := nodeView{Target: addr, Tier: "?"}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		n.Err = err.Error()
		return n
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.Err = "/metrics: " + resp.Status
		return n
	}
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		n.Err = "parse /metrics: " + err.Error()
		return n
	}
	n.M = m
	n.Tier = tierOf(m)
	// /debug/audit only exists on daemons running a ledger; absence (404)
	// is normal, and a transient failure should not blank the whole row.
	if ar, err := fetchAudit(client, addr); err == nil {
		n.Audit = ar
	}
	return n
}

func fetchAudit(client *http.Client, addr string) (*audit.Report, error) {
	resp, err := client.Get("http://" + addr + "/debug/audit")
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("audit: %s", resp.Status)
	}
	var r audit.Report
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}
