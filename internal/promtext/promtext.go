// Package promtext parses the Prometheus text exposition format (version
// 0.0.4) — the inverse of metrics.Registry.WriteProm. janus-top uses it to
// read throughput counters, sojourn quantiles, and epoch gauges back out of
// a live cluster's /metrics pages without pulling in a client library.
//
// The parser accepts the subset this repo emits (HELP/TYPE comments, series
// lines with optional {k="v",...} labels) plus standard label-value escapes
// (\\, \", \n), and skips lines it cannot parse rather than failing the
// whole scrape: one mangled series should not blind the console.
package promtext

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Sample is one parsed series line.
type Sample struct {
	// Name is the series name as written, including any _bucket/_sum/_count
	// suffix (the parser does not reassemble histogram families).
	Name string
	// Labels holds the decoded label pairs; nil when the series has none.
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// Label matches one label pair in queries.
type Label struct {
	Key   string
	Value string
}

// Metrics is one parsed scrape.
type Metrics struct {
	byName map[string][]Sample
}

// Parse reads one text-format exposition. Comment and blank lines are
// skipped; malformed series lines are dropped silently (see package doc).
// The only error returned is a read error from r.
func Parse(r io.Reader) (Metrics, error) {
	m := Metrics{byName: make(map[string][]Sample)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if s, ok := parseLine(line); ok {
			m.byName[s.Name] = append(m.byName[s.Name], s)
		}
	}
	return m, sc.Err()
}

func parseLine(line string) (Sample, bool) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, false
	} else if rest[i] == '{' {
		s.Name = rest[:i]
		var ok bool
		s.Labels, rest, ok = parseLabels(rest[i+1:])
		if !ok {
			return s, false
		}
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	// The value (and an optional timestamp, which this repo never emits but
	// the format allows) follows in whitespace-separated fields.
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return s, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, false
	}
	s.Value = v
	return s, true
}

// parseLabels decodes `k="v",k="v"}` (the opening brace already consumed),
// returning the pairs and the remainder of the line past the closing brace.
func parseLabels(in string) (map[string]string, string, bool) {
	labels := make(map[string]string)
	for {
		in = strings.TrimLeft(in, " \t")
		if strings.HasPrefix(in, "}") {
			return labels, in[1:], true
		}
		eq := strings.Index(in, "=")
		if eq < 0 {
			return nil, "", false
		}
		key := strings.TrimSpace(in[:eq])
		in = in[eq+1:]
		if !strings.HasPrefix(in, `"`) {
			return nil, "", false
		}
		val, rest, ok := parseQuoted(in[1:])
		if !ok {
			return nil, "", false
		}
		labels[key] = val
		in = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(in, ",") {
			in = in[1:]
		}
	}
}

// parseQuoted decodes a label value up to its closing quote, handling the
// \\ \" \n escapes the format defines.
func parseQuoted(in string) (val, rest string, ok bool) {
	var sb strings.Builder
	for i := 0; i < len(in); i++ {
		switch c := in[i]; c {
		case '"':
			return sb.String(), in[i+1:], true
		case '\\':
			if i+1 >= len(in) {
				return "", "", false
			}
			i++
			switch in[i] {
			case 'n':
				sb.WriteByte('\n')
			default: // \\ and \" decode to the escaped byte itself
				sb.WriteByte(in[i])
			}
		default:
			sb.WriteByte(c)
		}
	}
	return "", "", false
}

// Value returns the first sample of name whose labels include every match
// pair. A series with no labels matches an empty match list.
func (m Metrics) Value(name string, match ...Label) (float64, bool) {
	for _, s := range m.byName[name] {
		if labelsMatch(s.Labels, match) {
			return s.Value, true
		}
	}
	return 0, false
}

// Has reports whether any sample of name was scraped — janus-top's tier
// detector (a scrape with janus_qos_received_total is a QoS server, one
// with janus_router_requests_total is a router, and so on).
func (m Metrics) Has(name string) bool { return len(m.byName[name]) > 0 }

func labelsMatch(have map[string]string, want []Label) bool {
	for _, l := range want {
		if have[l.Key] != l.Value {
			return false
		}
	}
	return true
}
