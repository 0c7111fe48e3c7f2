package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/preproc"
)

// cachedBuf is one resident payload plus its recycling provenance.
// pooled marks buffers drawn from preproc's size-classed payload pool
// (PFS regenerated reads, peer-fetch copies): only those are returned to
// the pool on eviction. Buffers of unknown provenance — data-file reads,
// test-injected dataset slices — are never recycled, even when their
// capacity happens to be class-sized, because someone else may still
// reference the memory.
type cachedBuf struct {
	b      []byte
	pooled bool
}

// nodeCache pairs the policy-managed membership cache with the payload
// store, behind one mutex, and keeps the distributed directory consistent
// with local contents.
//
// It is also the lessor of DESIGN.md §12's buffer-recycling protocol: a
// demand read leases the resident buffer to the decode pipeline
// (leases), eviction recycles unleased pooled buffers immediately and
// parks leased ones (zombies) until the preprocessing worker releases
// the lease after decode. This closes the payload-buffer loop — evicted
// bytes go back to the pool that PFS reads draw from — instead of
// feeding every cache turnover to the garbage collector.
type nodeCache struct {
	mu       sync.Mutex
	node     int
	c        *cache.Cache
	payloads map[dataset.SampleID]cachedBuf
	dir      *Directory
	// leases counts in-flight decodes per buffer (keyed by the buffer's
	// base pointer, so an id evicted and refetched into a new buffer
	// cannot be confused with outstanding leases on the old one).
	leases map[*byte]int
	// zombies holds evicted-but-still-leased pooled buffers until their
	// last lease is released.
	zombies map[*byte][]byte
}

func newNodeCache(node int, capacity int64, policy cache.Policy, dir *Directory) (*nodeCache, error) {
	c, err := cache.New(capacity, policy)
	if err != nil {
		return nil, err
	}
	return &nodeCache{
		node:     node,
		c:        c,
		payloads: make(map[dataset.SampleID]cachedBuf),
		dir:      dir,
		leases:   make(map[*byte]int),
		zombies:  make(map[*byte][]byte),
	}, nil
}

// get returns the cached payload and records the hit/miss. On a hit of a
// pooled buffer the caller receives a lease (leased=true) and must
// arrange for ReleasePayload after the decode finishes reading it.
func (nc *nodeCache) get(id dataset.SampleID, now cache.Iter) (payload []byte, ok, leased bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.c.Get(id, now) {
		e := nc.payloads[id]
		if e.pooled {
			nc.leases[unsafe.SliceData(e.b)]++
			return e.b, true, true
		}
		return e.b, true, false
	}
	return nil, false, false
}

// ReleasePayload implements preproc.PayloadOwner: the decode pipeline is
// done reading a leased buffer. If the buffer was evicted while leased
// it is recycled now; otherwise it simply becomes evictable again.
func (nc *nodeCache) ReleasePayload(p []byte) {
	base := unsafe.SliceData(p)
	nc.mu.Lock()
	n := nc.leases[base] - 1
	if n > 0 {
		nc.leases[base] = n
		nc.mu.Unlock()
		return
	}
	delete(nc.leases, base)
	z, dead := nc.zombies[base]
	if dead {
		delete(nc.zombies, base)
	}
	nc.mu.Unlock()
	if dead {
		preproc.PutPayloadBuf(z)
	}
}

// discard routes an evicted entry: pooled buffers go back to the payload
// pool, unless a decode still reads them — then they park in zombies for
// ReleasePayload to recycle. Called with nc.mu held.
func (nc *nodeCache) discard(e cachedBuf) {
	if !e.pooled {
		return
	}
	base := unsafe.SliceData(e.b)
	if nc.leases[base] > 0 {
		nc.zombies[base] = e.b
		return
	}
	preproc.PutPayloadBuf(e.b)
}

// contains reports residency without touching stats (peer/prefetch
// checks must not perturb the owner's hit accounting, Section 5.5
// measures per-node cache hits).
func (nc *nodeCache) contains(id dataset.SampleID) bool {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	_, ok := nc.payloads[id]
	return ok
}

// copyPayload returns a pooled copy of a resident payload (nil when
// absent), without touching the hit/miss stats. Peer reads take copies
// rather than aliases so buffer ownership stays node-local: the requester
// exclusively owns what it receives, and this node can recycle the
// original on eviction without a cross-node read racing it.
func (nc *nodeCache) copyPayload(id dataset.SampleID) []byte {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	e, ok := nc.payloads[id]
	if !ok {
		return nil
	}
	buf := preproc.GetPayloadBuf(len(e.b))
	copy(buf, e.b)
	return buf
}

// peekBatch fills out[i] with whether ids[i] is resident, taking the
// cache lock once for the whole batch. Like contains it does not touch
// the hit/miss stats.
func (nc *nodeCache) peekBatch(ids []dataset.SampleID, out []bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for i, id := range ids {
		_, out[i] = nc.payloads[id]
	}
}

// put inserts a payload (policy permitting) and syncs the directory.
// ok reports whether the sample is cached after the call (inserted now
// or already present); retained reports whether the cache kept a
// reference to *this* slice. Callers deciding buffer ownership
// (DESIGN.md §12) must use retained — an already-cached sample keeps
// the cache's earlier copy, so the caller's duplicate stays exclusively
// the caller's. pooled declares the buffer recyclable on eviction (see
// cachedBuf); lease additionally takes out a decode lease when the
// cache retains a pooled buffer the caller is about to submit for
// decode, in the same critical section so no eviction can slip between
// insert and lease.
func (nc *nodeCache) put(id dataset.SampleID, payload []byte, now cache.Iter, pooled, lease bool) (ok, retained bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.c.Contains(id) {
		return true, false
	}
	evicted, inserted := nc.c.Put(id, int64(len(payload)), now)
	for _, ev := range evicted {
		nc.discard(nc.payloads[ev])
		delete(nc.payloads, ev)
		nc.dir.Remove(nc.node, ev)
	}
	if inserted {
		nc.payloads[id] = cachedBuf{b: payload, pooled: pooled}
		nc.dir.Add(nc.node, id)
		if pooled && lease {
			nc.leases[unsafe.SliceData(payload)]++
		}
	}
	return inserted, inserted
}

// maintain runs proactive policy evictions, then lets the policy drop
// its stale bookkeeping so a long run's memory follows the cache's size.
func (nc *nodeCache) maintain(now cache.Iter) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for _, ev := range nc.c.Maintain(now) {
		nc.discard(nc.payloads[ev])
		delete(nc.payloads, ev)
		nc.dir.Remove(nc.node, ev)
	}
	nc.c.Compact()
}

func (nc *nodeCache) stats() cache.Stats {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.c.Stats()
}

// crash wipes the cache as a process loss would: every resident entry is
// dropped from the membership cache, its payload discarded, and its
// directory bit cleared — all in one critical section, so the shard map
// is repaired atomically with the loss and no peer can be promised a
// copy the node no longer has. Pooled buffers go through discard, which
// parks still-leased ones as zombies instead of recycling memory a
// decode worker is reading. Returns the number of entries dropped.
func (nc *nodeCache) crash() int {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	n := 0
	for id, e := range nc.payloads {
		nc.c.Remove(id)
		nc.discard(e)
		delete(nc.payloads, id)
		nc.dir.Remove(nc.node, id)
		n++
	}
	return n
}

// loadWork is one message on a gpuQueue: a contiguous chunk of a batch
// enqueued by submitBatch.
type loadWork struct {
	// Materialize ids and complete comp's slots base..base+len(ids)-1.
	// The per-sample preprocessing seed is seed ^ id. ids is borrowed from
	// the batch scratch of the submitting rank's pipeline slot; every read
	// of it happens-before the completion's wake, which happens-before the
	// rank reuses the slot.
	ids  []dataset.SampleID
	base int
	seed uint64
	comp *preproc.Completion
	// iter is the global iteration the batch belongs to — the cache
	// timestamp of its accesses. The rank loop submits one batch ahead,
	// so this is not the node's iterNow.
	iter cache.Iter
	// ctx carries the requesting (rank, epoch, iter) down the demand
	// path: into the stall ledger and the preproc jobs. Zero when the run
	// is un-instrumented.
	ctx obs.TraceCtx
	// enq, when non-zero, timestamps the submit so the claiming worker
	// can charge the queue wait to ctx's rank. Stamped only while
	// attribution records, keeping the disabled path clock-free.
	enq time.Time
}

// maxLoadChunk caps the chunk size of submitBatch: loading is
// latency-bound (modeled storage waits), so one worker must never
// serialize a whole large batch.
const maxLoadChunk = 8

// gpuQueue is the per-GPU request queue of Section 4.2 with a resizable
// worker crew — "a separate request queue for each GPU, each of which can
// be assigned a different number of threads".
type gpuQueue struct {
	reqs    chan loadWork
	node    *nodeRuntime
	label   string // trace track-name prefix, "node<n>/gpu<j>"
	crew    *preproc.Crew
	pending atomic.Int64
}

func newGPUQueue(node *nodeRuntime, gpu, workers int) *gpuQueue {
	q := &gpuQueue{
		reqs:  make(chan loadWork, 1024),
		node:  node,
		label: fmt.Sprintf("node%d/gpu%d", node.node, gpu),
	}
	q.crew = preproc.NewCrew("loader", q.worker)
	q.resize(workers)
	return q
}

// submitBatch enqueues one GPU batch as contiguous chunks — one channel
// send per chunk instead of one per sample. The chunk size spreads the
// batch evenly over the queue's current workers, capped at maxLoadChunk.
// comp must be armed (Reset) for len(ids) results; slots map 1:1 to
// batch positions, so the results come back in batch order. ids is
// borrowed until comp's Wait returns; the caller must not mutate it
// before then. iter is the global iteration the batch is for.
//
//lint:hotpath one call per iteration per rank on the data path; preproc's TestBatchedSteadyStateDoesNotAllocate pins the round trip it feeds at 0 allocs
func (q *gpuQueue) submitBatch(ids []dataset.SampleID, iter cache.Iter, seed uint64, comp *preproc.Completion, tctx obs.TraceCtx, enq time.Time) {
	w := q.crew.Size()
	chunk := (len(ids) + w - 1) / w
	if chunk > maxLoadChunk {
		chunk = maxLoadChunk
	}
	if chunk < 1 {
		chunk = 1
	}
	q.pending.Add(int64(len(ids)))
	for base := 0; base < len(ids); base += chunk {
		end := base + chunk
		if end > len(ids) {
			end = len(ids)
		}
		q.reqs <- loadWork{ids: ids[base:end], base: base, seed: seed, comp: comp, iter: iter, ctx: tctx, enq: enq}
	}
}

// resize sets the queue's worker count, at least one.
func (q *gpuQueue) resize(n int) { q.crew.Resize(max(n, 1)) }

// worker is one loading thread of the queue. Demand comes first: while a
// chunk (or a stop token) is waiting it goes straight to the queue. With
// nothing waiting, a worker of a work-ahead node (nodeRuntime.workAhead)
// stages one id from the feed's near windows and looks again, so a chunk
// never waits for more than the one read in progress; with nothing to
// stage either it blocks on the queue — its own next chunk is its clock.
// The look is len, which takes no channel lock: the workers of a queue all
// share these two channels, and a chunk that arrives right after the look
// waits out one read, which is the bound anyway.
func (q *gpuQueue) worker() {
	var tid int64
	defer func() { q.crew.PutTID(tid) }()
	var jobs []preproc.Job // reused chunk scratch
	stops := q.crew.Stops()
	for !q.crew.ClaimStopDebt() {
		if q.node.workAhead && len(q.reqs) == 0 && len(stops) == 0 && q.node.stageOne(loaderReach, true) {
			continue
		}
		select {
		case <-stops:
			return
		case w, ok := <-q.reqs:
			if !ok {
				return
			}
			if tid == 0 {
				if ro := q.node.rt.ro; ro != nil && ro.trace != nil {
					tid = q.crew.TakeTID(ro.trace, q.label)
				}
			}
			jobs = q.node.loadChunk(w, tid, jobs[:0])
			q.pending.Add(-int64(len(w.ids)))
		}
	}
}

// nodeRuntime is everything co-located on one node.
type nodeRuntime struct {
	node    int
	rt      *Runtime
	cache   *nodeCache
	queues  []*gpuQueue
	pre     *preproc.Pool
	plan    *access.Plan
	iterNow atomic.Int32 // iteration the ranks are training on (prefetch window base and timestamps)

	remoteHits atomic.Uint64
	pfsReads   atomic.Uint64
	prefetched atomic.Uint64
	pfsRetries atomic.Uint64
	// stagedByLoaders is the part of prefetched that loading workers staged
	// while their queue was empty (workAhead).
	stagedByLoaders atomic.Uint64
	// prefetchLate counts demand misses on an id a helper or a loading
	// worker had in flight: prefetches issued, but too late to spare the
	// demand read.
	prefetchLate atomic.Uint64
	// failovers counts peer reads, demand or prefetch, that fell over to
	// the PFS: a directory-promised peer copy that did not arrive (crashed
	// or flaky peer — or the benign advisory-directory race).
	failovers atomic.Uint64

	// loadHist times each sample materialization (runtimeObs; nil when
	// un-instrumented — nil-safe to observe).
	loadHist *obs.Histogram

	// feed is the node's prefetch walk and helpers the number of
	// goroutines started to drain it (nil and 0 for demand-only
	// strategies). workAhead makes the node's loading workers stage from
	// the feed while their queue is empty: the simulator's rule
	// (pipeline.(*sim).prefetch), on for a loader.ThreadsDynamic strategy
	// that prefetches and for no other — a static or shared-pool strategy's
	// idle loaders stay idle. All three are fixed before the node's first
	// loading worker starts.
	feed      *prefetchFeed
	helpers   int
	workAhead bool

	prefWG   sync.WaitGroup
	stopPref chan struct{}
}

// threads returns the node's pool sizes in force.
func (n *nodeRuntime) threads() plan.NodeThreads {
	th := plan.NodeThreads{Preproc: n.pre.Workers(), Loading: make([]int, len(n.queues))}
	for j, q := range n.queues {
		th.Loading[j] = q.crew.Size()
	}
	return th
}

// loadChunk materializes one contiguous chunk of a GPU batch and hands
// it to preprocessing in a single SubmitBatch. tid is the worker's trace
// track (0 when untraced). jobs is the worker's reused scratch, passed
// length-zero; the returned slice carries its grown capacity back to the
// worker loop.
func (n *nodeRuntime) loadChunk(w loadWork, tid int64, jobs []preproc.Job) []preproc.Job {
	if !w.enq.IsZero() {
		if ro := n.rt.ro; ro != nil {
			// The whole chunk sat in the queue from submit to this pickup;
			// charge it once (chunks are the queue's unit of work).
			ro.ledger.add(w.ctx, causeQueueWait, time.Since(w.enq))
		}
	}
	for i, id := range w.ids {
		payload, owned, owner := n.loadPayload(id, w.iter, tid, w.ctx)
		jobs = append(jobs, preproc.Job{
			ID:      id,
			Payload: payload,
			Seed:    w.seed ^ uint64(id),
			Comp:    w.comp,
			Slot:    w.base + i,
			Owned:   owned,
			Owner:   owner,
			Ctx:     w.ctx,
		})
	}
	if !w.enq.IsZero() {
		enq := time.Now()
		for i := range jobs {
			jobs[i].EnqueuedAt = enq
		}
	}
	n.pre.SubmitBatch(jobs)
	return jobs
}

// loadPayload materializes one sample's bytes for iteration now: local
// cache, else a peer's cache, else PFS. This is the Equation 1
// path, executed for real. now is the iteration of the access, which the
// planned policies key their next-use lookups on. owned reports whether the returned slice is exclusively the
// data path's — recyclable after decode; a non-nil owner means the
// slice is leased from a cache that still retains it and must be
// released (never recycled) after decode (DESIGN.md §12).
func (n *nodeRuntime) loadPayload(id dataset.SampleID, now cache.Iter, tid int64, tctx obs.TraceCtx) (payload []byte, owned bool, owner preproc.PayloadOwner) {
	ro := n.rt.ro
	rec := ro != nil && (ro.trace != nil || n.loadHist.On())
	var start time.Time
	var row *stallRow
	if rec {
		start = time.Now()
		row = ro.ledger.row(tctx)
	}
	payload, ok, leased := n.cache.get(id, now)
	if ok {
		if leased {
			owner = n.cache
		}
	} else {
		payload, owned, owner, _ = n.fetch(id, now, row, true)
	}
	if rec {
		d := time.Since(start)
		if ok {
			// The miss path attributes its own legs inside fetch; a hit is
			// entirely the local cache's time.
			row.add(causeLocalHit, d)
		}
		n.loadHist.Observe(d.Seconds())
		if tid != 0 {
			ro.trace.SpanArgs("load", "io", tid, start, d, "sample", int64(id), "", 0)
		}
	}
	return payload, owned, owner
}

// fetch pulls a sample that is not in the local cache from a peer's cache
// (via the distribution manager) or the PFS, and caches it locally. It is
// the one walk of the tiers, for both callers: the demand path
// (demand=true, a loading worker that will decode the sample) and
// stageOne (demand=false, staging only, for a prefetch helper or a
// loading worker working ahead). The two differ only in who is charged
// (row), in that demand peer hits count as remoteHits, and in buffer
// ownership (DESIGN.md §12): a demand fetch takes a decode
// lease when the local cache retained a pooled buffer (owner = the
// cache) and otherwise owns the fetched buffer (owned) — the cache kept
// its own earlier copy, or refused; a prefetch takes no lease, returns no
// buffer, and recycles on the spot a pooled one the cache did not retain.
// ok reports whether the sample is cached after the call.
//
// row, when non-nil, receives the attribution (DESIGN.md §14): the peer
// leg is peer_fetch whether it delivers or fails; a PFS read is pfs on
// the normal path (no holder) and recovery when the peer broke a promise
// — exactly the failover events.
func (n *nodeRuntime) fetch(id dataset.SampleID, now cache.Iter, row *stallRow, demand bool) (payload []byte, owned bool, owner preproc.PayloadOwner, ok bool) {
	if demand && n.feed != nil && n.feed.inFlight(id) {
		// A helper or a loading worker claimed this id and has not staged
		// it yet: the prefetch was issued, but too late to spare the
		// demand read.
		n.prefetchLate.Add(1)
	}
	pooled, retained := false, false
	pfsCause := causePFS
	var legStart time.Time
	if peer := n.rt.dir.Holder(id, n.node); peer >= 0 {
		if row != nil {
			legStart = time.Now()
		}
		// The holder's cache copies into a pooled buffer just for us.
		// A promised holder that delivers nothing is a crashed or
		// flaky peer, or the benign eviction race.
		payload, pooled = n.rt.dm.Fetch(peer, id, n.rt.ds.Size(id)), true
		if row != nil {
			row.add(causePeerFetch, time.Since(legStart))
		}
		if payload == nil {
			n.failovers.Add(1) // the peer broke its promise: fall to the PFS
			pfsCause = causeRecovery
		}
	}
	if payload != nil {
		if demand {
			n.remoteHits.Add(1)
		}
		ok, retained = n.cache.put(id, payload, now, pooled, demand)
	} else {
		if row != nil {
			legStart = time.Now()
		}
		payload = n.pfsReadRetry(id)
		n.pfsReads.Add(1)
		pooled = n.rt.pfs.PooledReads()
		ok, retained = n.cache.put(id, payload, now, pooled, demand)
		if row != nil {
			row.add(pfsCause, time.Since(legStart))
		}
	}
	switch {
	case !demand:
		if pooled && !retained {
			preproc.PutPayloadBuf(payload) // nothing will ever read it
		}
		return nil, false, nil, ok
	case retained && pooled:
		return payload, false, n.cache, ok
	default:
		return payload, !retained, nil, ok
	}
}

// PFS reads back off exponentially between transient failures, doubling
// from pfsRetryBase up to pfsRetryMax, and never give up: training cannot
// proceed without the sample, so real loaders surface storage outages as
// hangs rather than corrupt batches.
const (
	pfsRetryBase = time.Millisecond
	pfsRetryMax  = 16 * time.Millisecond
)

// pfsReadRetry reads from the PFS, retrying transient failures and
// counting each retry for the failure-injection diagnostics.
func (n *nodeRuntime) pfsReadRetry(id dataset.SampleID) []byte {
	var payload []byte
	err := retryTransient(func() { n.pfsRetries.Add(1) }, func() error {
		var err error
		payload, err = n.rt.pfs.Read(id)
		return err
	})
	if err != nil {
		// Unreachable for in-range ids; surface loudly if it happens.
		panic(fmt.Sprintf("runtime: PFS read failed: %v", err))
	}
	return payload
}

// retryTransient runs op until it succeeds or fails with an error that is
// not ErrTransient (matched with errors.Is, so wrapped transients retry
// too). onRetry observes each transient failure before its backoff sleep.
func retryTransient(onRetry func(), op func() error) error {
	for backoff := pfsRetryBase; ; backoff = nextBackoff(backoff) {
		err := op()
		if err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
		onRetry()
		time.Sleep(backoff)
	}
}

// nextBackoff doubles a backoff, capped at pfsRetryMax.
func nextBackoff(d time.Duration) time.Duration {
	return min(2*d, pfsRetryMax)
}

// buildNodePolicy instantiates the strategy's cache policy for this node
// over its access plan.
func buildNodePolicy(spec loader.Spec, plan cache.Oracle, node int, dir *Directory) cache.Policy {
	return spec.BuildPolicy(plan, func(id dataset.SampleID) bool {
		return dir.IsLastCopy(node, id)
	})
}
