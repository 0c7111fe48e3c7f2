package runtime

import (
	"errors"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/kvstore"
	"repro/internal/loader"
	"repro/internal/preproc"
	"repro/internal/sampler"
)

// prefetchClaim is one id the feed handed out: the sample, and where in
// the walk it sits (global iteration of its window, interleaved
// offset within it), which is where a refusal rewinds the cursor to.
type prefetchClaim struct {
	id   dataset.SampleID
	iter int
	off  int
}

// prefetchFeed is a node's single walk over its future accesses — the
// runtime's counterpart of the simulator's per-node prefetch cursor
// (pipeline.(*sim).prefetch), in the same order: windows nearest
// iteration first, and within a window sample k of every GPU before
// sample k+1 of any, so a partially staged window covers all GPUs evenly
// instead of leaving the last GPU the straggler every rank waits for.
//
// The node's prefetch helpers claim ids from it, and so do the loading
// workers of a dynamic strategy while their queue is empty (workAhead);
// each settles its claim when the fetch is done. A claimed id is in flight
// until settled and is never handed out twice, so no sample is staged by
// two of them. A claim the cache refused
// rewinds the cursor to it and pauses the feed until the node's iteration
// advances: later candidates are needed even later, so the policy would
// refuse them too, and each attempt costs a storage read.
//
// Lock order: feed.mu → nodeCache.mu (resident is nodeCache.contains) →
// Directory.mu. Nothing takes feed.mu with either of the others held.
type prefetchFeed struct {
	sched         *sampler.Schedule
	node, gpus    int
	itersPerEpoch int
	totalIters    int
	depth         int
	resident      func(dataset.SampleID) bool

	mu sync.Mutex
	// The cursor: the next candidate is interleaved position off of
	// window iter. batch is that window's node batch (GPU-major, as the
	// schedule lays it out) while filled.
	iter, off int
	batch     []dataset.SampleID
	filled    bool
	inflight  map[dataset.SampleID]struct{}
	// resumeAt pauses the feed after a refusal: claims return nothing
	// while the node's iteration is below it.
	resumeAt int
	pauses   uint64
}

func newPrefetchFeed(sched *sampler.Schedule, node, gpus, totalIters, depth int, resident func(dataset.SampleID) bool) *prefetchFeed {
	return &prefetchFeed{
		sched:         sched,
		node:          node,
		gpus:          gpus,
		itersPerEpoch: sched.IterationsPerEpoch(),
		totalIters:    totalIters,
		depth:         depth,
		resident:      resident,
		inflight:      make(map[dataset.SampleID]struct{}),
	}
}

// The rank loop's shape, as the feed sees it. Windows now and now+1 belong
// to the demand pipeline (the ranks submit one batch ahead), so every walk
// starts at now+feedNear. A loading worker with nothing queued stages only
// from the two windows that enter that pipeline next, up to now+loaderReach:
// those are the misses it would otherwise take as demand reads one
// iteration later, and stopping there keeps the extra goroutines from
// driving the deep walk past what the cache can hold (DESIGN.md §8 has the
// reach sweep).
const (
	feedNear    = 2
	loaderReach = 3
)

// claim appends to out the next up-to-max ids worth fetching, all from
// one window, and marks them in flight. now is the iteration the ranks
// are training on; the walk covers windows now+feedNear to now+reach,
// bounded by the feed's depth and the last iteration of the run. Helpers
// pass the depth, idle loading workers loaderReach: one cursor serves
// both, so a loader is handed something only while the walk has not yet
// left the near windows. Resident and in-flight ids are passed over. An
// empty result means the feed is caught up or paused; the caller waits for
// the next iteration.
func (f *prefetchFeed) claim(now, reach, max int, out []prefetchClaim) []prefetchClaim {
	f.mu.Lock()
	defer f.mu.Unlock()
	if now < f.resumeAt {
		return out
	}
	if f.iter < now+feedNear {
		f.iter, f.off, f.filled = now+feedNear, 0, false
	}
	if reach > f.depth {
		reach = f.depth
	}
	limit := now + reach
	if limit > f.totalIters-1 {
		limit = f.totalIters - 1
	}
	for f.iter <= limit {
		if !f.filled {
			f.batch = f.sched.NodeBatch(f.batch[:0], f.iter/f.itersPerEpoch, f.iter%f.itersPerEpoch, f.node, f.gpus)
			f.filled = true
		}
		perGPU := len(f.batch) / f.gpus
		for ; f.off < len(f.batch) && len(out) < max; f.off++ {
			id := f.batch[f.off%f.gpus*perGPU+f.off/f.gpus]
			if _, busy := f.inflight[id]; busy || f.resident(id) {
				continue
			}
			f.inflight[id] = struct{}{}
			out = append(out, prefetchClaim{id: id, iter: f.iter, off: f.off})
		}
		if len(out) > 0 {
			return out
		}
		f.iter, f.off, f.filled = f.iter+1, 0, false
	}
	return out
}

// settle ends a claim. staged reports whether the sample is in the cache
// now; when it is not (the policy refused it, or refused an earlier claim
// of the same batch) the cursor goes back to the claim, so it is the
// first thing handed out again, and the feed pauses until the iteration
// advances past now — the iteration the refusal was decided at.
func (f *prefetchFeed) settle(c prefetchClaim, staged bool, now int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.inflight, c.id)
	if staged {
		return
	}
	if c.iter < f.iter || (c.iter == f.iter && c.off < f.off) {
		f.filled = f.filled && c.iter == f.iter
		f.iter, f.off = c.iter, c.off
	}
	if f.resumeAt <= now {
		f.resumeAt = now + 1
		f.pauses++
	}
}

// abandon ends claims whose fetch was never attempted because the run is
// stopping: they leave the in-flight set, and the cursor and the pause stay
// as they are.
func (f *prefetchFeed) abandon(cs []prefetchClaim) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range cs {
		delete(f.inflight, c.id)
	}
}

// inFlight reports whether a helper or a loading worker is staging id
// right now.
func (f *prefetchFeed) inFlight(id dataset.SampleID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, busy := f.inflight[id]
	return busy
}

// pauseCount is how many times a refusal paused the feed.
func (f *prefetchFeed) pauseCount() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pauses
}

// prefetchHelpers is the number of background prefetch helpers each node
// runs for spec: the strategy's PrefetchThreads, at least one for any
// strategy that prefetches at all, none for demand-only strategies.
func prefetchHelpers(spec loader.Spec) int {
	if spec.PrefetchDepth <= 0 {
		return 0
	}
	if spec.PrefetchThreads < 1 {
		return 1
	}
	return spec.PrefetchThreads
}

// prefetchHelper drains the node's feed to its full depth until stopPref
// closes: one id at a time on the peer/PFS path, one window's worth on the
// KV path so a window still costs one MultiGet round trip per shard. The
// helpers compete with demand loading for storage bandwidth exactly as
// real background prefetching does.
func (n *nodeRuntime) prefetchHelper() {
	defer n.prefWG.Done()
	var claims []prefetchClaim
	for !n.stopping() {
		if n.rt.kv == nil {
			if n.stageOne(n.feed.depth, false) {
				continue
			}
		} else {
			now := int(n.iterNow.Load())
			claims = n.feed.claim(now, n.feed.depth, n.rt.gpus*n.rt.sched.BatchSize(), claims[:0])
			if len(claims) > 0 {
				n.prefetchWindowKV(claims, now, n.rt.ro.prefetchRow(n.node))
				continue
			}
		}
		// Caught up or paused: wait for the next iteration.
		select {
		case <-n.stopPref:
			return
		case <-n.rt.tick:
		}
	}
}

// stopping reports whether the run is tearing down: stopPref is closed and
// nothing may claim from the feed any more.
func (n *nodeRuntime) stopping() bool {
	select {
	case <-n.stopPref:
		return true
	default:
		return false
	}
}

// stageOne claims the feed's next id within reach windows and stages it:
// the one claim → fetch → settle → count sequence, for the helpers and for
// the loading workers that work ahead (byLoader). The fetch is charged to
// the node's prefetch ledger row whoever runs it: no rank waits for it. It
// reports false when there was nothing to claim — the feed is caught up
// within reach or paused, or the run is stopping.
func (n *nodeRuntime) stageOne(reach int, byLoader bool) bool {
	if n.stopping() {
		return false
	}
	now := int(n.iterNow.Load())
	var one [1]prefetchClaim
	claims := n.feed.claim(now, reach, 1, one[:0])
	if len(claims) == 0 {
		return false
	}
	_, _, _, staged := n.fetch(claims[0].id, cache.Iter(now), 0, n.rt.ro.prefetchRow(n.node), false)
	n.feed.settle(claims[0], staged, now)
	if staged {
		n.prefetched.Add(1)
		if byLoader {
			n.stagedByLoaders.Add(1)
		}
	}
	return true
}

// prefetchWindowKV stages one claimed window through the KV cluster: the
// claims are fetched in a single MultiGet round trip per shard, and every
// PFS fallback read is written back to the cluster in one batched
// MultiPut. Semantics match the per-id path: a KV hit counts only toward
// prefetched, a PFS fallback also counts a PFS read, and a local-cache
// refusal settles the rest of the claims unstaged (the feed rewinds to
// the refused one). row, when non-nil, is charged like fetch charges it:
// the MultiGet is peer_fetch, a PFS read is pfs, or recovery when the
// whole fan-out failed.
func (n *nodeRuntime) prefetchWindowKV(claims []prefetchClaim, now int, row *stallRow) {
	keys := make([]string, len(claims))
	for i, c := range claims {
		keys[i] = kvKey(c.id)
	}
	var legStart time.Time
	if row != nil {
		legStart = time.Now()
	}
	vals, err := n.rt.kv.MultiGet(keys)
	if row != nil {
		row.add(causePeerFetch, time.Since(legStart))
	}
	pfsCause := causePFS
	if err != nil {
		// A partial fan-out failure still returns the healthy shards'
		// values (failed shards' entries are nil, i.e. misses); anything
		// else degrades the whole window to misses.
		var pe *kvstore.PartialError
		if errors.As(err, &pe) {
			n.partials.Add(1)
		} else {
			n.failovers.Add(1)
			vals = nil
			pfsCause = causeRecovery
		}
	}
	// Write-backs accumulate across the loop and flush in one MultiPut,
	// including when a cache refusal abandons the window early. The flush
	// still reads every queued buffer, so pooled ones stay protected
	// until after it: retained buffers hold a lease (eviction must not
	// recycle them mid-flush), unretained ones are recycled only once the
	// flush is done with them.
	var wbKeys []string
	var wbVals [][]byte
	var freeAfterWB, releaseAfterWB [][]byte
	defer func() {
		if len(wbKeys) > 0 {
			_ = n.rt.kv.MultiPut(wbKeys, wbVals) // best-effort, like the per-id write-back
		}
		for _, b := range freeAfterWB {
			preproc.PutPayloadBuf(b)
		}
		for _, b := range releaseAfterWB {
			n.cache.ReleasePayload(b)
		}
	}()
	refused := false
	for i, c := range claims {
		if refused {
			n.feed.settle(c, false, now)
			continue
		}
		if n.stopping() {
			// Loading workers may still read the feed: leave nothing in flight.
			n.feed.abandon(claims[i:])
			return
		}
		var payload []byte
		pooled := false
		if vals != nil && vals[i] != nil {
			payload = vals[i] // KV client copy: not pool-recyclable
		} else {
			if row != nil {
				legStart = time.Now()
			}
			payload = n.pfsReadRetry(c.id)
			if row != nil {
				row.add(pfsCause, time.Since(legStart))
			}
			n.pfsReads.Add(1)
			pooled = n.rt.pfs.PooledReads()
			wbKeys = append(wbKeys, keys[i])
			wbVals = append(wbVals, payload)
		}
		ok, retained := n.cache.put(c.id, payload, cache.Iter(now), pooled, pooled)
		if pooled {
			if retained {
				releaseAfterWB = append(releaseAfterWB, payload)
			} else {
				freeAfterWB = append(freeAfterWB, payload)
			}
		}
		n.feed.settle(c, ok, now)
		if ok {
			n.prefetched.Add(1)
		}
		refused = !ok
	}
}
