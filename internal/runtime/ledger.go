package runtime

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// stallCause indexes the attribution buckets of the per-iteration stall
// ledger (DESIGN.md §14). Every nanosecond a demand load spends between
// a GPU dispatching its batch and holding the tensor is charged to
// exactly one cause, so the per-cause totals decompose the "stall" span
// instead of merely correlating with it:
//
//	local_hit   serving the sample from this node's cache (the happy
//	            path; large totals here mean the cache itself is slow
//	            or the batch is huge, not that I/O is)
//	peer_fetch  the peer leg — a peer-cache read (the modeled
//	            interconnect delay, then the copy out of the holder's
//	            cache) — whether it delivered or failed (a slow failing peer stalls the GPU exactly as
//	            long as a slow succeeding one)
//	pfs         a demand read from the parallel file system on the
//	            normal path: no holder was promised. Includes retry backoff and
//	            the local-cache insert that follows the read.
//	decode_wait time a decode job sat in the preprocessing queue
//	            before a worker picked it up (decode-bound node)
//	queue_wait  time a load request sat in its per-GPU queue before a
//	            loading worker picked it up (loader-bound node)
//	recovery    the fallback PFS read (including retry backoff) paid
//	            because a peer broke a promise — a directory holder
//	            that delivered nothing, i.e. exactly the
//	            failover-counted events
type stallCause int

const (
	causeLocalHit stallCause = iota
	causePeerFetch
	causePFS
	causeDecodeWait
	causeQueueWait
	causeRecovery
	numStallCauses
)

// stallCauseNames are the wire names: trace span names on the per-rank
// stall tracks, and the <cause> segment of the
// lobster_runtime_stall_<cause>_seconds histograms. lobster-doctor keys
// on them verbatim.
var stallCauseNames = [numStallCauses]string{
	"local_hit", "peer_fetch", "pfs", "decode_wait", "queue_wait", "recovery",
}

// prefetchCauses are the causes staging ahead of demand can incur, by a
// prefetch loop's slot or a loading worker working ahead: it fetches through
// the same tiers as a demand miss, but nothing queues for it and it never
// hits the cache it is filling.
var prefetchCauses = [...]stallCause{causePeerFetch, causePFS, causeRecovery}

// loadSideCause marks the causes that make up a rank's load time — the
// storage-facing legs, excluding the queueing waits — which sum to the
// iteration record's Load.
func loadSideCause(c stallCause) bool {
	return c == causeLocalHit || c == causePeerFetch || c == causePFS || c == causeRecovery
}

// stallRow accumulates one rank's attribution for one iteration in
// flight. Padded so concurrent loading workers charging different ranks
// never share a cache line.
type stallRow struct {
	ns [numStallCauses]atomic.Int64
	_  [64]byte
}

// stallLedger is the run's attribution accumulator: two rows per global
// rank, indexed by the parity of the iteration a charge belongs to (its
// trace context's Iter), because the rank loop keeps two batches in
// flight (DESIGN.md §12). Safe without locks because of the ordering the
// pipeline and the barrier enforce: every demand load (and the preproc
// job it spawns) for rank r's iteration h completes before r's wait on
// batch h returns, which happens-before r arrives at barrier h, so the
// last arriver's flush of parity h&1 sees all of iteration h. Iteration
// h+1's loads are already running then, but they charge the other
// parity; iteration h+2, the next to use parity h&1, is submitted only
// after barrier h releases. So add and flush never race on the same
// iteration's nanoseconds, and no charge is reported under another
// iteration.
//
// prefetch holds one more row per node, which that node's prefetch loop
// — and its loading workers, for what they stage while their queue is
// empty — charge with the causes they can incur (peer_fetch, pfs,
// recovery). No rank waits for a staged read, so these are not stalls and
// belong to no iteration's batch: the flush drains whatever accumulated
// since the last one, and a charge that lands during a flush is reported
// with the next.
type stallLedger struct {
	rows     [][2]stallRow
	prefetch []stallRow
}

func newStallLedger(world, nodes int) *stallLedger {
	return &stallLedger{rows: make([][2]stallRow, world), prefetch: make([]stallRow, nodes)}
}

// row returns the row of the (rank, iteration) ctx names. Nil-safe, and
// nil for out-of-range ranks (a clamped trace context from a hostile
// frame), whose charges are dropped rather than mis-charged.
func (l *stallLedger) row(ctx obs.TraceCtx) *stallRow {
	rank := ctx.Rank()
	if l == nil || rank >= len(l.rows) {
		return nil
	}
	return &l.rows[rank][ctx.Iter()&1]
}

// add charges d to cause c of the (rank, iteration) ctx names.
func (l *stallLedger) add(ctx obs.TraceCtx, c stallCause, d time.Duration) {
	l.row(ctx).add(c, d)
}

// add charges d to cause c. Nil-safe.
func (r *stallRow) add(c stallCause, d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.ns[c].Add(int64(d))
}

// drain swaps the row to zero and returns the accumulated durations per
// cause.
func (r *stallRow) drain(out *[numStallCauses]time.Duration) {
	for c := range out {
		out[c] = time.Duration(r.ns[c].Swap(0))
	}
}
