package qosserver

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucket"
	"repro/internal/failpoint"
	"repro/internal/wire"
)

// tickClock is a simulated clock that advances by a fixed step on every
// read, so any two consecutive timestamp samples are strictly ordered.
type tickClock struct {
	ticks atomic.Int64
	step  int64
}

func (c *tickClock) now() time.Time {
	return time.Unix(0, c.ticks.Add(1)*c.step)
}

// TestSojournStageMonotonicity drives one request through the full
// listen→FIFO→decide→send pipeline under a simulated clock and checks the
// per-stage sojourn decomposition: every stage is sampled after the one
// before it (recv ≤ dequeue ≤ decide ≤ send — strictly, under a clock that
// advances on every read), and the stages sum exactly to the total.
func TestSojournStageMonotonicity(t *testing.T) {
	clk := &tickClock{step: 1000}
	s, err := New(Config{
		Addr:        "127.0.0.1:0",
		Workers:     1,
		DefaultRule: bucket.Rule{RefillRate: 1e6, Capacity: 1e6, Credit: 1e6},
		Clock:       clk.now,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	conn, err := net.Dial("udp", s.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	pkt, err := wire.AppendRequest(nil, wire.Request{ID: 1, Key: "sojourn", Cost: 1})
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	if _, err := conn.Write(pkt); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 2048)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("read response: %v", err)
	}

	// observeSojourn runs after the response datagram is sent; wait for it.
	deadline := time.Now().Add(2 * time.Second)
	for s.sojournTotal.Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sojourn total never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	stages := []struct {
		name string
		h    interface {
			Count() int64
			Sum() int64
		}
	}{
		{"queue", s.sojournQueue},
		{"decide", s.sojournDecide},
		{"send", s.sojournSend},
	}
	var sum int64
	for _, st := range stages {
		if c := st.h.Count(); c != 1 {
			t.Fatalf("stage %s recorded %d samples, want 1", st.name, c)
		}
		v := st.h.Sum()
		if v <= 0 {
			t.Errorf("stage %s sojourn = %dns; the tick clock advances on every read, so each stage must be strictly positive", st.name, v)
		}
		sum += v
	}
	if total := s.sojournTotal.Sum(); sum != total {
		t.Errorf("stage sum %dns != total %dns; the decomposition must be exact (shared endpoint timestamps)", sum, total)
	}
	if cur := int64(gauge(t, s, "janus_qos_sojourn_current_ns")); cur != s.sojournQueue.Sum() {
		t.Errorf("janus_qos_sojourn_current_ns = %dns, want the queue-stage sojourn %dns", cur, s.sojournQueue.Sum())
	}
}

// TestAuditCatchesDoubleCredit is the audit ledger's reason to exist: an
// honest server — including one denying heavily — always audits "ok", and
// the injected double-credit failpoint (an exhausted bucket silently
// refilled to capacity, the canonical conservation bug) must be reported as
// overspend naming the minted bucket and its generation.
func TestAuditCatchesDoubleCredit(t *testing.T) {
	s, err := New(Config{
		Addr:          "127.0.0.1:0",
		DefaultRule:   bucket.Rule{RefillRate: 0, Capacity: 5, Credit: 5},
		Audit:         true,
		AuditInterval: time.Hour, // audit on demand only, keep the test deterministic
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	// Honest phase: exhaust the bucket and keep hammering the deny path.
	// Denials grant nothing, so the ledger stays within budget.
	for i := 0; i < 20; i++ {
		s.Decide(wire.Request{ID: uint64(i + 1), Key: "honest", Cost: 1})
	}
	if rep := s.AuditReport(); rep.Verdict != "ok" {
		t.Fatalf("honest server audited %q, want ok: %+v", rep.Verdict, rep.Overspent)
	}

	// Inject the conservation bug and spend the minted credit.
	t.Cleanup(failpoint.DisarmAll)
	if err := failpoint.Arm("qosserver/audit/double-credit", failpoint.Action{Kind: failpoint.Drop}); err != nil {
		t.Fatalf("arm failpoint: %v", err)
	}
	for i := 0; i < 50; i++ {
		s.Decide(wire.Request{ID: uint64(100 + i), Key: "cheat", Cost: 1})
	}

	rep := s.AuditReport()
	if rep.Verdict != "overspend" {
		t.Fatalf("minted server audited %q, want overspend", rep.Verdict)
	}
	var found bool
	for _, o := range rep.Overspent {
		if o.Key == "honest" {
			t.Errorf("honest bucket flagged as overspent: %+v", o)
		}
		if o.Key == "cheat" {
			found = true
			if o.Over <= 0 {
				t.Errorf("overspend on %q reports Over = %g, want > 0", o.Key, o.Over)
			}
			if o.Generation == 0 {
				t.Errorf("overspend on %q carries no generation", o.Key)
			}
		}
	}
	if !found {
		t.Fatalf("overspend report does not name the minted bucket: %+v", rep.Overspent)
	}
	if v := s.auditOverspend.Value(); v < 1 {
		t.Errorf("janus_qos_audit_overspend_total = %d, want >= 1", v)
	}
	// Repeated audits of the same generation do not re-count.
	before := s.auditOverspend.Value()
	_ = s.AuditReport()
	if after := s.auditOverspend.Value(); after != before {
		t.Errorf("re-auditing the same generation moved the overspend counter %d -> %d", before, after)
	}
}

// TestAuditDisabledReport checks the default-off posture: no ledger, no
// accounting cost, and /debug/audit reports "disabled" rather than a
// hollow "ok".
func TestAuditDisabledReport(t *testing.T) {
	s, err := New(Config{
		Addr:        "127.0.0.1:0",
		DefaultRule: bucket.Rule{RefillRate: 1e6, Capacity: 1e6, Credit: 1e6},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	s.Decide(wire.Request{ID: 1, Key: "k", Cost: 1})
	if rep := s.AuditReport(); rep.Verdict != "disabled" {
		t.Fatalf("audit-off server reports %q, want disabled", rep.Verdict)
	}
}
