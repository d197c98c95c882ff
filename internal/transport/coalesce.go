package transport

// Per-backend fan-in coalescing (DESIGN.md §10). Every transport.Client is
// the router's dedicated socket to ONE QoS server, so concurrent requests
// routed to the same backend meet here; the coalescer merges them into one
// batched datagram (wire.FlagBatched) of up to MaxBatch entries, amortizing
// the send/recv syscall pair and the server's FIFO enqueue across the batch.
//
// Latency discipline (the bufferbloat guard): coalescing must never trade
// throughput for unbounded queue delay, so every wait is bounded.
//
//   - Singleton fast path: with no contention the flusher sends a lone
//     request immediately — no linger, and the frame is byte-identical to
//     the legacy singleton.
//   - Natural batching: requests arriving while a flush's syscall is in
//     flight accumulate and leave together on the next flush, for zero
//     added latency.
//   - Adaptive linger: only while MORE exchanges are in flight than entries
//     are pending (a fan-in regime: answered callers are about to loop
//     around, so company is plausible) will the flusher hold a PARTIAL
//     batch open, and then for at most MaxLinger, waiting for it to fill.
//     A lone caller always has inflight == pending == 1 and never lingers.
//
// MaxLinger is clamped to the per-attempt Timeout and consumes the caller's
// fixed Retries × Timeout budget (the deadline is set before the first
// enqueue), so the paper's 100 µs × 5 worst-case envelope still holds with
// batching on — see TestRetryBudgetBoundsTotalLatency.

import (
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/wire"
)

// fpClientBatch sits on the coalescer's flush path, evaluated once per
// batched datagram with the backend address as the peer. Drop discards the
// TAIL HALF of the batch before encoding (a partial-batch drop: the surviving
// head is delivered, the dropped entries silently time out and retry), Dup
// sends the datagram twice, Partition drops the whole flush for matching
// peers, and Delay stalls the flush (inflating the observable linger).
var fpClientBatch = failpoint.New("transport/client/batch")

// maxBatchBytes bounds the encoded size of one coalesced datagram to a
// conservative single-MTU budget; a batch is flushed early rather than grown
// past it (a lone oversized key still goes out alone — the singleton path
// imposes no budget, matching the legacy behaviour).
const maxBatchBytes = 1400

// coalescer merges concurrent requests to one backend into batched frames.
type coalescer struct {
	c *Client

	mu      sync.Mutex
	pending []wire.Request
	// pendingAt holds the enqueue timestamp of each pending entry (parallel
	// to pending) when Config.CoalesceSojourn is set; zeros otherwise. It
	// measures the enqueue→flush sojourn — the observable cost of the
	// adaptive linger.
	pendingAt []int64

	work chan struct{} // cap 1: pending became non-empty
	full chan struct{} // cap 1: pending reached MaxBatch while lingering

	buf  []byte // reused encode buffer, owned by flushLoop
	done chan struct{}
}

func newCoalescer(c *Client) *coalescer {
	co := &coalescer{
		c:    c,
		work: make(chan struct{}, 1),
		full: make(chan struct{}, 1),
		buf:  make([]byte, 0, maxBatchBytes),
		done: make(chan struct{}),
	}
	go co.flushLoop()
	return co
}

// enqueue hands one request (attempt) to the flusher. It never blocks: the
// caller immediately goes to wait on its response channel, exactly as it
// would after a direct socket write.
//
// stops once the slice reaches the fan-in high-water mark.
//
//janus:hotpath steady state appends into the retained pending slice; growth
func (co *coalescer) enqueue(req wire.Request) {
	var at int64
	if co.c.cfg.CoalesceSojourn != nil {
		at = time.Now().UnixNano()
	}
	co.mu.Lock()
	co.pending = append(co.pending, req)
	co.pendingAt = append(co.pendingAt, at)
	n := len(co.pending)
	co.mu.Unlock()
	signal(co.work)
	if n >= co.c.cfg.MaxBatch {
		signal(co.full)
	}
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// flushLoop is the per-backend flusher goroutine: it drains pending requests
// into batched datagrams until the client closes.
func (co *coalescer) flushLoop() {
	defer close(co.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		select {
		case <-co.c.quit:
			return
		case <-co.work:
		}
		for {
			co.mu.Lock()
			n := len(co.pending)
			if n == 0 {
				co.mu.Unlock()
				break
			}
			if n < co.c.cfg.MaxBatch && co.c.inflight() > n {
				// Fan-in regime (waiters outnumber pending entries): hold the
				// partial batch open for at most MaxLinger, hoping to fill
				// it. The full signal cuts the wait short the instant
				// MaxBatch entries are pending.
				co.mu.Unlock()
				timer.Reset(co.c.cfg.MaxLinger)
				select {
				case <-co.full:
					if !timer.Stop() {
						<-timer.C
					}
				case <-timer.C:
				case <-co.c.quit:
					return
				}
				co.mu.Lock()
			}
			batch, batchAt, rest, restAt := co.take()
			co.pending, co.pendingAt = rest, restAt
			co.mu.Unlock()
			co.flush(batch, batchAt)
		}
	}
}

// take selects the next batch from pending (called with mu held): up to
// MaxBatch entries within the byte budget, preserving arrival order. An
// entry whose ID duplicates one already taken (a retry racing its own
// earlier attempt, or an armed dup failpoint) stays pending for the next
// flush — one frame must never carry the same ID twice, the decoders reject
// that as a replay.
func (co *coalescer) take() (batch []wire.Request, batchAt []int64, rest []wire.Request, restAt []int64) {
	size := 0
	for i, e := range co.pending {
		esz := batchEntrySize(e)
		if len(batch) > 0 && (len(batch) >= co.c.cfg.MaxBatch || size+esz > maxBatchBytes) {
			rest = append(rest, co.pending[i:]...)
			restAt = append(restAt, co.pendingAt[i:]...)
			break
		}
		if containsID(batch, e.ID) {
			rest = append(rest, e)
			restAt = append(restAt, co.pendingAt[i])
			continue
		}
		batch = append(batch, e)
		batchAt = append(batchAt, co.pendingAt[i])
		size += esz
	}
	return batch, batchAt, rest, restAt
}

// batchEntrySize is a worst-case wire-size estimate for one batch entry
// (the extra-entry encoding is a superset of the head encoding).
func batchEntrySize(e wire.Request) int {
	sz := 15 + len(e.Key) // id + flags + cost + keylen + key
	if e.TraceID != 0 {
		sz += 8
	}
	return sz
}

func containsID(batch []wire.Request, id uint64) bool {
	for _, e := range batch {
		if e.ID == id {
			return true
		}
	}
	return false
}

// flush encodes and sends one batch. Send failures cannot be reported to the
// N callers waiting on their response channels, so they are counted
// (FlushErrors) and the callers recover through their normal retry path.
//
//janus:hotpath
func (co *coalescer) flush(batch []wire.Request, batchAt []int64) {
	sends := 1
	if fpClientBatch.Armed() {
		switch o := fpClientBatch.EvalPeer(co.c.raddr); o.Kind {
		case failpoint.Drop:
			// Partial-batch drop: the tail half never reaches the wire.
			batch = batch[:len(batch)/2]
			batchAt = batchAt[:len(batch)]
		case failpoint.Partition:
			sends = 0
		case failpoint.Dup:
			sends = 2
		case failpoint.Delay:
			o.Sleep()
		case failpoint.Error:
			co.c.flushErrs.Add(1)
			sends = 0
		}
	}
	if len(batch) == 0 || sends == 0 {
		return
	}
	pkt, err := wire.AppendBatchRequest(co.buf[:0], wire.BatchRequest{Entries: batch})
	if err != nil {
		// Unreachable with DoAttempts-validated entries; counted so an
		// encoder regression cannot silently strand callers.
		co.c.flushErrs.Add(1)
		return
	}
	co.buf = pkt[:0]
	if h := co.c.cfg.BatchSizes; h != nil {
		h.Record(int64(len(batch)))
	}
	for i := 0; i < sends; i++ {
		//lint:ignore netio fire-and-forget UDP send; Write on an unconnected-buffer datagram socket does not block on the peer
		if _, err := co.c.conn.Write(pkt); err != nil {
			co.c.flushErrs.Add(1)
			return
		}
	}
	if h := co.c.cfg.CoalesceSojourn; h != nil {
		// Enqueue→wire sojourn of every delivered entry. Entries lost to a
		// failpoint or a dead socket never complete their sojourn; their
		// exchange recovers through the retry path, which bypasses the
		// coalescer.
		now := time.Now().UnixNano()
		for _, at := range batchAt {
			if at > 0 {
				h.Record(now - at)
			}
		}
	}
}
