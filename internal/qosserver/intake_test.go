package qosserver

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/failpoint"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestIntakeServesConcurrentClients drives the one intake — one socket, one
// FIFO, one CoDel controller — end-to-end from many distinct client sockets
// into a pool of workers, and checks every request is answered correctly no
// matter which worker dequeued it.
func TestIntakeServesConcurrentClients(t *testing.T) {
	db := newDB(t, bucket.Rule{Key: "shared", RefillRate: 0, Capacity: 10_000, Credit: 10_000})
	s := newServer(t, Config{Store: db, Workers: 4})

	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := transport.Dial(s.Addr(), clientCfg)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				resp, err := c.Do(wire.Request{Key: "shared", Cost: 1})
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %w", id, j, err)
					return
				}
				if !resp.Allow || resp.Status != wire.StatusOK {
					errs <- fmt.Errorf("client %d req %d: %+v", id, j, resp)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := s.Stats()
	if st.Decisions < clients*perClient {
		t.Fatalf("decisions = %d, want >= %d", st.Decisions, clients*perClient)
	}
	if st.Degraded != 0 || st.Dropped != 0 {
		t.Fatalf("healthy load degraded=%d dropped=%d", st.Degraded, st.Dropped)
	}
	if snap := s.SnapshotIntake(); snap.Workers != 4 || snap.CodelState != "ok" || snap.CodelDrops != 0 {
		t.Fatalf("intake snapshot = %+v, want 4 workers, codel ok, 0 drops", snap)
	}
}

// TestCodelNonPositiveTargetSelectsDefault: CoDel has no off switch — a
// zero or negative target runs the controller at DefaultCodelTarget.
func TestCodelNonPositiveTargetSelectsDefault(t *testing.T) {
	for _, target := range []time.Duration{0, -1} {
		s := newServer(t, Config{
			DefaultRule: bucket.Rule{RefillRate: 1, Capacity: 1, Credit: 1},
			CodelTarget: target,
		})
		var prom bytes.Buffer
		s.Registry().WriteProm(&prom)
		if !strings.Contains(prom.String(), "\njanus_qos_codel_target_seconds 0.001\n") {
			t.Fatalf("CodelTarget %v: /metrics has no janus_qos_codel_target_seconds 0.001", target)
		}
		if snap := s.SnapshotIntake(); snap.CodelState != "ok" {
			t.Fatalf("CodelTarget %v: codel state %q, want ok", target, snap.CodelState)
		}
	}
}

// TestLongKeysAnswered: a key of any length the wire allows reaches the
// decision, so the listener's read buffer must hold the largest datagram —
// a truncated one fails to decode, is counted Malformed and never answered.
func TestLongKeysAnswered(t *testing.T) {
	s := newServer(t, Config{DefaultRule: bucket.Rule{RefillRate: 1e6, Capacity: 1e6, Credit: 1e6}})
	c, err := transport.Dial(s.Addr(), clientCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, n := range []int{3_000, 60_000} {
		resp, err := c.Do(wire.Request{Key: strings.Repeat("k", n), Cost: 1})
		if err != nil {
			t.Fatalf("%d-byte key: %v", n, err)
		}
		if !resp.Allow || resp.Status != wire.StatusDefaultRule {
			t.Fatalf("%d-byte key: %+v, want allowed by the default rule", n, resp)
		}
	}
	if m := s.Stats().Malformed; m != 0 {
		t.Fatalf("Malformed = %d, want 0", m)
	}
}

// TestPartitionKeysOnIPv4PeerOnDualStackSocket: on a socket bound to ":0"
// (dual-stack where the host has IPv6) an IPv4 peer is read IPv4-mapped.
// Its string must still be "127.0.0.1:port", or a partition keyed by that
// address — the form the chaos suite uses — would let the peer through.
func TestPartitionKeysOnIPv4PeerOnDualStackSocket(t *testing.T) {
	s := newServer(t, Config{Addr: ":0", DefaultRule: bucket.Rule{RefillRate: 1e6, Capacity: 1e6, Credit: 1e6}})
	_, port, err := net.SplitHostPort(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	dial := func() *net.UDPConn {
		raddr, err := net.ResolveUDPAddr("udp", net.JoinHostPort("127.0.0.1", port))
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	cut, open := dial(), dial()
	if err := failpoint.Arm("qosserver/udp/recv", failpoint.Action{Kind: failpoint.Partition, Peers: []string{cut.LocalAddr().String()}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(failpoint.DisarmAll)
	fp := failpoint.Lookup("qosserver/udp/recv")
	before := fp.Hits()
	answered := func(c *net.UDPConn, wait time.Duration) bool {
		pkt, err := wire.AppendRequest(nil, wire.Request{ID: 1, Key: "k", Cost: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(pkt); err != nil {
			t.Fatal(err)
		}
		if err := c.SetReadDeadline(time.Now().Add(wait)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, wire.MaxDatagram)
		n, err := c.Read(buf)
		if err != nil {
			return false
		}
		resp, err := wire.DecodeResponse(buf[:n])
		return err == nil && resp.ID == 1
	}
	if !answered(open, 5*time.Second) {
		t.Fatal("a peer outside the partition got no reply")
	}
	if answered(cut, 200*time.Millisecond) {
		t.Fatalf("%s is partitioned off but was answered (server on %s)", cut.LocalAddr(), s.Addr())
	}
	if hits := fp.Hits() - before; hits != 1 {
		t.Fatalf("partition fired %d times, want 1", hits)
	}
}
