// Package client is the Janus QoS client library — the Go equivalent of
// the paper's qos_client.php (§IV). It issues the key-value QoS check
// against a Janus HTTP endpoint (gateway LB or request router) and offers
// an HTTP middleware that mirrors the paper's integration snippet: run the
// check before the wrapped handler, and answer 403 Forbidden when Janus
// says FALSE.
//
// One blocking check in front of every application request is the whole
// integration contract, so what a check costs its caller is Janus's price.
// A check is therefore one plain HTTP/1.1 exchange on internal/h1, done in
// the calling goroutine — no net/http client, no helper goroutines, no
// allocation on the success path (pinned by TestCheckAllocPin). h1 brings
// the pool of persistent connections, the one deadline per check
// (checkBudget from the start of the call, dial included), net/http's rule
// of one re-send when a reused connection fails before the first reply
// byte, and the strict reply reader; the client passes it no header sink,
// so every header line but the framing ones is checked and skipped.
//
//   - Verdict. A 200 reply's body, at most maxBody bytes, is handed to
//     wire.ParseHTTPBody. A non-200 status is an error, returned after a
//     body whose end is known has been drained so that the connection
//     survives. Anything malformed, ambiguous, oversized or late closes the
//     connection and yields (FailOpen, err). FuzzClientResponse holds the
//     client to http.ReadResponse: it says TRUE only where net/http reads
//     status 200 and "true".
//   - No fallback. A reply is only found unrecognisable after the request
//     is on the wire and has spent its credit, so re-issuing it through a
//     second HTTP stack would spend it twice. One reader that handles all
//     three framings is both the simpler and the correct design.
package client

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/h1"
	"repro/internal/wire"
)

const (
	// checkBudget bounds one check from first to last byte, dial and retry
	// included.
	checkBudget = 5 * time.Second
	// maxBody is the longest reply body accepted: "false" plus slack for
	// surrounding white space.
	maxBody = 64
)

// Client checks admission against one Janus endpoint. It is safe for
// concurrent use; each concurrent check holds a connection of its own.
type Client struct {
	pool *h1.Pool
	// tail is everything in a request after the request-URI.
	tail string
	// budget is checkBudget; in-package tests shorten it.
	budget time.Duration

	// FailOpen selects the verdict when Janus itself is unreachable.
	FailOpen bool
}

// New creates a client for a Janus HTTP endpoint ("host:port").
func New(endpoint string) *Client {
	return &Client{
		pool:   h1.NewPool(endpoint),
		tail:   " HTTP/1.1\r\nHost: " + endpoint + "\r\n\r\n",
		budget: checkBudget,
	}
}

// Check performs qos_check(key): TRUE admits, FALSE throttles.
func (c *Client) Check(key string) (bool, error) {
	return c.checkCost(key, 1)
}

// checkCost performs a weighted check consuming cost credits.
func (c *Client) checkCost(key string, cost float64) (bool, error) {
	now := time.Now()
	deadline := now.Add(c.budget)
	cn, err := c.pool.Get(now, deadline)
	if err != nil {
		return c.FailOpen, fmt.Errorf("client: qos check: %w", err)
	}
	cn.Req = appendRequest(cn.Req[:0], c.tail, key, cost)
	cn, h, err := c.pool.Send(cn, deadline, nil)
	if err != nil {
		return c.FailOpen, fmt.Errorf("client: qos check: %w", err)
	}
	allow, err := verdict(cn, h)
	c.pool.Put(cn, now)
	if err != nil {
		return c.FailOpen, fmt.Errorf("client: qos check: %w", err)
	}
	return allow, nil
}

// verdict reads the body of a reply whose head is h.
func verdict(cn *h1.Conn, h h1.Head) (bool, error) {
	if h.Status != http.StatusOK {
		if h.Delimited() {
			// Drain a body whose end is known, so that the connection survives;
			// if that fails, Put closes it.
			_, _ = cn.Body(h1.ReadBuffer)
		}
		return false, fmt.Errorf("HTTP %d", h.Status)
	}
	body, err := cn.Body(maxBody)
	if err != nil {
		return false, err
	}
	return parseBody(body)
}

// appendRequest appends the whole request for one check to dst.
//
//janus:hotpath
func appendRequest(dst []byte, tail, key string, cost float64) []byte {
	dst = append(dst, "GET "...)
	dst = wire.AppendHTTPQuery(dst, wire.Request{Key: key, Cost: cost})
	return append(dst, tail...)
}

// parseBody is wire.ParseHTTPBody without the conversion to a string on the
// two answers that matter.
func parseBody(body []byte) (bool, error) {
	switch trimmed := bytes.TrimSpace(body); {
	case string(trimmed) == wire.BodyAllow:
		return true, nil
	case string(trimmed) == wire.BodyDeny:
		return false, nil
	}
	return wire.ParseHTTPBody(string(body))
}

// KeyFunc extracts the QoS key from a request. The paper's examples: the
// client IP for anonymous browsing, the username for account quotas, the
// User-Agent for crawler policies, or user+database for NoSQL services.
type KeyFunc func(*http.Request) string

// ByRemoteIP keys on the client IP address ($_SERVER['REMOTE_ADDR']).
func ByRemoteIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// ThrottledBody is the response body sent with 403 replies.
const ThrottledBody = "Throttled by Janus QoS\n"

// Wrap guards an HTTP handler with an admission check — the Go rendering
// of the paper's PHP wrapper:
//
//	$qos = qos_check($key);
//	if ($qos) { include("original_index.php"); }
//	else      { header("HTTP/1.1 403 Forbidden"); }
func (c *Client) Wrap(key KeyFunc, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ok, _ := c.Check(key(r)) // unreachable Janus falls back to FailOpen
		if !ok {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusForbidden)
			io.WriteString(w, ThrottledBody)
			return
		}
		next.ServeHTTP(w, r)
	})
}
