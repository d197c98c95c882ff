package chaostest

// Invariant 7 — a flash crowd under receive loss cannot mint credit: the
// scenario suite's flash-crowd workload (10× step within 500ms on top of a
// 0.5× base) runs against the live loopback cluster while the QoS intake
// drops 20% of received datagrams. Loss triggers client retransmission and
// CoDel shedding at once — the exact cocktail where a double-spend bug
// would hide — yet aggregate admission must stay within the Σ(C + r·t)
// conservation bound, the intake must shed by answering (zero FIFO-full
// drops), and the autoscaler must still see through the noise and scale
// out during the crowd. The server's audit ledger runs alongside as the
// per-bucket oracle.
//
// Seeded like the rest of the suite: JANUS_CHAOS_SEED feeds both the drop
// failpoint and the workload generator, so a failing run reproduces. The
// race acceptance is `make race-scenarios`: 20 consecutive seeds under the
// race detector.

import (
	"context"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/scenario"
)

func TestInvariantFlashCrowdUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live cluster and runs for seconds")
	}
	sc, err := scenario.Get("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}

	// RunReal arms the decide-delay pin itself; the receive-loss fault is
	// this test's contribution to the cocktail.
	const recvSite = "qosserver/udp/recv"
	if err := failpoint.Arm(recvSite, failpoint.Action{Kind: failpoint.Drop, P: 0.2, Seed: chaosSeed}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { failpoint.Disarm(recvSite) })

	rep, err := scenario.RunReal(context.Background(), sc, int64(chaosSeed), longBudget)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("flash-crowd@20%%loss: req=%d admit=%d degraded=%d dropped=%d errors=%d over=%.3f p99=%.1fms out=%d in=%d audit=%s",
		rep.Requests, rep.Admitted, rep.Degraded, rep.Dropped, rep.Errors,
		rep.AdmitOverBound, rep.P99SojournMs, rep.ScaledOut, rep.ScaledIn, rep.AuditVerdict)

	if fp := failpoint.Lookup(recvSite); fp == nil || fp.Hits() == 0 {
		t.Fatal("receive-loss failpoint never fired — the fault was not engaged")
	}
	if rep.Requests == 0 {
		t.Fatal("scenario generated no load")
	}

	// Conservation: no interleaving of loss, retransmission, and shedding
	// may push admission past the aggregate token-bucket bound.
	if rep.AdmitOverBound > 1.0 {
		t.Errorf("admitted exceeds the Σ(C + r·t) bound: over=%.4f — loss+retry minted credit", rep.AdmitOverBound)
	}
	if rep.AuditVerdict != "ok" {
		t.Errorf("audit verdict %q, want ok", rep.AuditVerdict)
	}
	// The intake degrades by answering, never by dropping at a full FIFO.
	if rep.Dropped != 0 {
		t.Errorf("FIFO-full drops = %d with CoDel active, want 0", rep.Dropped)
	}
	// The control loop must still act on the crowd despite 20% loss.
	if rep.ScaledOut < 1 {
		t.Errorf("autoscale never scaled out under a 10× crowd (out=%d)", rep.ScaledOut)
	}
}
