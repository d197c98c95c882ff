package qosserver

// Sharded SO_REUSEPORT intake (DESIGN.md §14).
//
// The seed server funnelled every datagram through ONE socket into ONE
// FIFO: the receive syscall, the channel, and the sojourn clock were all
// global serialization points, and BENCH_batching showed the hop is
// syscall-dominated. The intake is now N independent slices — each owns a
// listener socket bound to the same UDP address with SO_REUSEPORT, a
// private FIFO, a private CoDel controller, and a private worker pool — so
// the hot path is share-nothing from the receive syscall to the bucket
// shard: the kernel spreads inbound flows across the sockets by flow hash,
// and nothing on the per-datagram path is touched by two intakes.
//
// Portability: SO_REUSEPORT with per-socket load balancing is Linux
// semantics. When the control hook fails — non-Linux build, exotic kernel,
// restrictive sandbox — the server falls back to a single socket feeding
// intake 0 and logs the degradation; every feature above still works, only
// the receive path is serialized again (the seed behaviour).

import (
	"context"
	"net"
)

// intake is one share-nothing slice of the receive path.
type intake struct {
	id   int
	conn *net.UDPConn
	fifo chan packet
	// cdl is this FIFO's CoDel controller; nil when CoDel is disabled.
	cdl *codel
	// workers is the size of this intake's private worker pool.
	workers int
}

// listenIntakes binds n UDP sockets to addr. n <= 1 binds one plain socket
// (the portable path). n > 1 binds every socket with the SO_REUSEPORT
// control hook; the first socket resolves an ephemeral port and the rest
// join it. Any failure after a clean single-socket bind is reported via
// fallback=true and the caller proceeds with one socket.
func listenIntakes(addr string, n int) (conns []*net.UDPConn, fallback bool, err error) {
	single := func() ([]*net.UDPConn, bool, error) {
		laddr, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, false, err
		}
		conn, err := net.ListenUDP("udp", laddr)
		if err != nil {
			return nil, false, err
		}
		return []*net.UDPConn{conn}, false, nil
	}
	if n <= 1 {
		return single()
	}
	if !reuseportAvailable {
		c, _, err := single()
		return c, true, err
	}
	lc := net.ListenConfig{Control: setReuseport}
	conns = make([]*net.UDPConn, 0, n)
	bindAddr := addr
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", bindAddr)
		if err != nil {
			// The control hook (or a second bind to the shared port)
			// failed: release whatever bound and take the portable
			// single-socket fallback.
			for _, c := range conns {
				_ = c.Close()
			}
			c, _, serr := single()
			return c, true, serr
		}
		uc, ok := pc.(*net.UDPConn)
		if !ok {
			_ = pc.Close()
			for _, c := range conns {
				_ = c.Close()
			}
			c, _, serr := single()
			return c, true, serr
		}
		conns = append(conns, uc)
		if i == 0 {
			// An ephemeral request (":0") is resolved by the first bind;
			// the remaining sockets must join that concrete port.
			bindAddr = uc.LocalAddr().String()
		}
	}
	return conns, false, nil
}

// IntakeSnapshot is one intake's row in the /debug/qos dump.
type IntakeSnapshot struct {
	Listener     int `json:"listener"`
	Workers      int `json:"workers"`
	FIFODepth    int `json:"fifo_depth"`
	FIFOCapacity int `json:"fifo_capacity"`
	// CodelState is "disabled", "ok", or "dropping".
	CodelState string `json:"codel_state"`
	// CodelCount is the dropping-episode degrade count (cadence position).
	CodelCount int64 `json:"codel_count,omitempty"`
	// CodelDrops is the total degraded entries shed by this intake.
	CodelDrops int64 `json:"codel_drops"`
}

// SnapshotIntake captures the live intake state — listener fan-out, FIFO
// depths, CoDel controller state — for /debug/qos.
func (s *Server) SnapshotIntake() []IntakeSnapshot {
	out := make([]IntakeSnapshot, 0, len(s.intakes))
	for _, in := range s.intakes {
		row := IntakeSnapshot{
			Listener:     in.id,
			Workers:      in.workers,
			FIFODepth:    len(in.fifo),
			FIFOCapacity: cap(in.fifo),
			CodelState:   "disabled",
		}
		if in.cdl != nil {
			dropping, count := in.cdl.snapshot()
			row.CodelState = "ok"
			if dropping {
				row.CodelState = "dropping"
				row.CodelCount = count
			}
			row.CodelDrops = in.cdl.drops.Load()
		}
		out = append(out, row)
	}
	return out
}

// Listeners reports the intake fan-out and whether the sharded SO_REUSEPORT
// path is active (false means the portable single-socket fallback).
func (s *Server) Listeners() (n int, reuseport bool) {
	return len(s.intakes), len(s.intakes) > 1
}
