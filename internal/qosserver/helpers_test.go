package qosserver

import (
	"net"
	"strconv"
	"strings"
	"testing"
)

// connWrapper is a tiny helper for firing raw datagrams in tests.
type connWrapper struct{ conn net.Conn }

func netDial(addr string) (*connWrapper, error) {
	c, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &connWrapper{conn: c}, nil
}

func (w *connWrapper) Write(p []byte) (int, error) { return w.conn.Write(p) }
func (w *connWrapper) Close() error                { return w.conn.Close() }

// defaultKey reports whether key is resident on s and served by the default
// rule.
func defaultKey(s *Server, key string) bool {
	e := s.adm.Get(key)
	return e != nil && e.Default()
}

// gauge reads one unlabelled series from s's /metrics exposition.
func gauge(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	var b strings.Builder
	s.Registry().WriteProm(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("%s not exposed", name)
	return 0
}
