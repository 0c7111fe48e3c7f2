package runtime

import (
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

// cachedBuf is one resident payload plus its decode leases. Every
// resident buffer was drawn from preproc's size-classed payload pool (a
// regenerated PFS read or a peer-fetch copy) and goes back to it on
// eviction. leases counts the decodes reading b right now. unread marks
// a staged payload that no rank and no peer has read yet.
type cachedBuf struct {
	b      []byte
	leases int32
	unread bool
}

// nodeCache pairs the policy-managed membership cache with the payload
// store, behind one mutex, and keeps the distributed directory consistent
// with local contents.
//
// It is also the lessor of DESIGN.md §12's buffer-recycling protocol: a
// demand read leases the resident buffer to the decode pipeline (the
// entry's lease count), eviction recycles unleased buffers
// immediately and parks leased ones (zombies) until the preprocessing
// worker releases the last lease after decode. This closes the
// payload-buffer loop — evicted bytes go back to the pool that PFS reads
// draw from — instead of feeding every cache turnover to the garbage
// collector.
type nodeCache struct {
	mu   sync.Mutex
	node int
	c    *cache.Cache
	dir  *Directory
	// entries is indexed by sample id, like the membership cache's own
	// table and the directory: entries[id].b is id's resident payload, nil
	// while id is not resident. Sized to the dataset when the cache is
	// built, so no access looks anything up in a map.
	entries []cachedBuf
	// zombies holds evicted buffers that decodes still read, keyed
	// by the buffer's base pointer and carrying their outstanding leases,
	// until the last lease is released. A release whose buffer is no
	// longer its id's entry (the id was evicted, and maybe re-inserted
	// into another buffer since) finds its lease here.
	zombies map[*byte]cachedBuf
	// recycle returns an evicted buffer to the payload pool
	// (preproc.PutPayloadBuf; tests count the calls).
	recycle func([]byte)
	// stagedEvicted counts staged payloads evicted unread: storage reads
	// the prefetcher paid for and nothing used. Written under mu.
	stagedEvicted atomic.Uint64
}

// newNodeCache builds node's cache for a dataset of samples ids.
func newNodeCache(node, samples int, capacity int64, policy cache.Policy, dir *Directory) (*nodeCache, error) {
	c, err := cache.New(capacity, policy)
	if err != nil {
		return nil, err
	}
	c.Reserve(samples)
	return &nodeCache{
		node:    node,
		c:       c,
		dir:     dir,
		entries: make([]cachedBuf, samples),
		zombies: make(map[*byte]cachedBuf),
		recycle: preproc.PutPayloadBuf,
	}, nil
}

// get returns the cached payload and records the hit/miss. On a hit the
// caller receives a lease and must arrange for ReleasePayload after the
// decode finishes reading it.
func (nc *nodeCache) get(id dataset.SampleID, now cache.Iter) (payload []byte, ok bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if !nc.c.Get(id, now) {
		return nil, false
	}
	return nc.lease(id), true
}

// leaseResident is get for the resident samples of a batch, under one
// lock: out[i] is ids[i]'s leased payload, nil when ids[i] is not
// resident. Only the hits are counted (and seen by the policy); an absent
// sample is counted by the get of the loading worker that picks it up, so
// one staged meanwhile is a hit then. hits is how many were leased.
func (nc *nodeCache) leaseResident(ids []dataset.SampleID, now cache.Iter, out [][]byte) (hits int) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for i, id := range ids {
		out[i] = nil
		if nc.c.Contains(id) {
			nc.c.Get(id, now)
			out[i] = nc.lease(id)
			hits++
		}
	}
	return hits
}

// lease takes a decode lease on resident id's buffer. Called with nc.mu
// held.
func (nc *nodeCache) lease(id dataset.SampleID) []byte {
	e := &nc.entries[id]
	e.leases++
	e.unread = false
	return e.b
}

// ReleasePayload implements preproc.PayloadOwner: the decode pipeline is
// done reading p, leased as sample id. If p is still id's entry it simply
// becomes evictable again; if it was evicted while leased it is recycled
// with its last lease.
func (nc *nodeCache) ReleasePayload(id dataset.SampleID, p []byte) {
	base := unsafe.SliceData(p)
	nc.mu.Lock()
	if e := &nc.entries[id]; e.leases > 0 && unsafe.SliceData(e.b) == base {
		e.leases--
		nc.mu.Unlock()
		return
	}
	z, ok := nc.zombies[base]
	if !ok {
		nc.mu.Unlock()
		panic(fmt.Sprintf("runtime: node %d: release of sample %d, which holds no lease on that buffer", nc.node, id))
	}
	if z.leases--; z.leases > 0 {
		nc.zombies[base] = z
		nc.mu.Unlock()
		return
	}
	delete(nc.zombies, base)
	nc.mu.Unlock()
	nc.recycle(z.b)
}

// evict drops id's entry and its directory bit after the membership cache
// let it go. The buffer goes back to the payload pool, unless a decode
// still reads it — then it parks in zombies for ReleasePayload to
// recycle. A staged payload nothing read counts as stagedEvicted. Called
// with nc.mu held.
func (nc *nodeCache) evict(id dataset.SampleID) {
	e := &nc.entries[id]
	if e.unread {
		nc.stagedEvicted.Add(1)
	}
	if e.leases > 0 {
		nc.zombies[unsafe.SliceData(e.b)] = *e
	} else {
		nc.recycle(e.b)
	}
	*e = cachedBuf{}
	nc.dir.Remove(nc.node, id)
}

// contains reports residency without touching stats (peer/prefetch
// checks must not perturb the owner's hit accounting, Section 5.5
// measures per-node cache hits).
func (nc *nodeCache) contains(id dataset.SampleID) bool {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return nc.entries[id].b != nil
}

// copyPayload returns a pooled copy of a resident payload (nil when
// absent), without touching the hit/miss stats. Peer reads take copies
// rather than aliases so buffer ownership stays node-local: the requester
// exclusively owns what it receives, and this node can recycle the
// original on eviction without a cross-node read racing it.
func (nc *nodeCache) copyPayload(id dataset.SampleID) []byte {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	e := &nc.entries[id]
	if e.b == nil {
		return nil
	}
	e.unread = false
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
		out[i] = nc.entries[id].b != nil
	}
}

// put inserts a payload (policy permitting) and syncs the directory.
// ok reports whether the sample is cached after the call (inserted now
// or already present); retained reports whether the cache kept a
// reference to *this* slice. Callers deciding buffer ownership
// (DESIGN.md §12) must use retained — an already-cached sample keeps
// the cache's earlier copy, so the caller's duplicate stays exclusively
// the caller's. payload must come from preproc's payload pool: the cache
// recycles it on eviction. lease takes out a decode lease when the cache
// retains the buffer the caller is about to submit for decode, in the
// same critical section so no eviction can slip between insert and
// lease. An insert without a lease is a staging read's, and stays unread
// until a rank's get or a peer's copy.
func (nc *nodeCache) put(id dataset.SampleID, payload []byte, now cache.Iter, lease bool) (ok, retained bool) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	if nc.c.Contains(id) {
		return true, false
	}
	evicted, inserted := nc.c.Put(id, int64(len(payload)), now)
	for _, ev := range evicted {
		nc.evict(ev)
	}
	if inserted {
		e := &nc.entries[id]
		*e = cachedBuf{b: payload, unread: !lease}
		if lease {
			e.leases = 1
		}
		nc.dir.Add(nc.node, id)
	}
	return inserted, inserted
}

// maintain runs proactive policy evictions, then lets the policy drop
// its stale bookkeeping so a long run's memory follows the cache's size.
func (nc *nodeCache) maintain(now cache.Iter) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for _, ev := range nc.c.Maintain(now) {
		nc.evict(ev)
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
// copy the node no longer has. Buffers go through evict, which parks
// still-leased ones as zombies instead of recycling memory a decode
// worker is reading. Returns the number of entries dropped.
func (nc *nodeCache) crash() int {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	n := 0
	for i := range nc.entries {
		if nc.entries[i].b == nil {
			continue
		}
		id := dataset.SampleID(i)
		nc.c.Remove(id)
		nc.evict(id)
		n++
	}
	return n
}

// loadWork is one message on a gpuQueue: a run of consecutive batch slots
// whose samples were absent from the node cache at dispatch
// (submitBatch).
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
// be assigned a different number of threads". Its workers serve the
// samples a batch needs from storage (a peer's cache or the PFS); the
// batch's cache hits never enter it (submitBatch).
type gpuQueue struct {
	reqs  chan loadWork
	node  *nodeRuntime
	label string // trace track-name prefix, "node<n>/gpu<j>"
	crew  *preproc.Crew
	// pending counts the queued and in-progress samples: the misses of
	// the batches submitted and not yet loaded.
	pending atomic.Int64

	// Dispatch scratch, sized to the batch at newGPUQueue and written
	// only by submitBatch, on the goroutine of the one rank the queue
	// serves: each slot's leased payload (nil for a miss), and the hits'
	// decode jobs, which SubmitBatch copies out.
	leased [][]byte
	jobs   []preproc.Job
}

func newGPUQueue(node *nodeRuntime, gpu, workers, batch int) *gpuQueue {
	q := &gpuQueue{
		reqs:   make(chan loadWork, 1024),
		node:   node,
		label:  fmt.Sprintf("node%d/gpu%d", node.node, gpu),
		leased: make([][]byte, batch),
		jobs:   make([]preproc.Job, batch),
	}
	q.crew = preproc.NewCrew("loader", q.worker)
	q.resize(workers)
	return q
}

// submitBatch dispatches one GPU batch from the rank's goroutine. Under
// one lock of the node cache it leases every resident sample (a counted
// hit, nodeCache.leaseResident); only the absent slots go on the loading
// queue, one message per run of consecutive absent slots, capped at the
// chunk size, which spreads the batch evenly over the queue's current
// workers up to maxLoadChunk; then the hits go to the decode pool in one
// SubmitBatch, owned by the cache. comp must be armed (Reset) for
// len(ids) results; slots map 1:1 to batch positions, so the results come
// back in batch order. ids is borrowed until comp's Wait returns; the
// caller must not mutate it before then. iter is the global iteration the
// batch is for. A non-zero enq (attribution records) times the lease pass
// as the hits' local_hit and stamps their decode jobs.
//
//lint:hotpath one call per iteration per rank on the data path; TestDispatchDoesNotAllocate pins the round trip at 0 allocs
func (q *gpuQueue) submitBatch(ids []dataset.SampleID, iter cache.Iter, seed uint64, comp *preproc.Completion, tctx obs.TraceCtx, enq time.Time) {
	n := q.node
	var start time.Time
	if !enq.IsZero() {
		start = time.Now()
	}
	leased := q.leased[:len(ids)]
	hits := n.cache.leaseResident(ids, iter, leased)
	var leasedAt time.Time
	if !enq.IsZero() {
		leasedAt = time.Now()
	}
	if misses := len(ids) - hits; misses > 0 {
		w := max(q.crew.Size(), 1)
		chunk := min((len(ids)+w-1)/w, maxLoadChunk)
		q.pending.Add(int64(misses))
		for base := 0; base < len(ids); {
			if leased[base] != nil {
				base++
				continue
			}
			end := base + 1
			for end < len(ids) && end-base < chunk && leased[end] == nil {
				end++
			}
			q.reqs <- loadWork{ids: ids[base:end], base: base, seed: seed, comp: comp, iter: iter, ctx: tctx, enq: enq}
			base = end
		}
	}
	if hits == 0 {
		return
	}
	if !enq.IsZero() {
		n.chargeHits(tctx, leasedAt.Sub(start), hits)
	}
	j := 0
	for i, p := range leased {
		if p != nil {
			q.jobs[j] = preproc.Job{ID: ids[i], Payload: p, Seed: seed ^ uint64(ids[i]), Comp: comp, Slot: i, Owner: n.cache, Ctx: tctx, EnqueuedAt: leasedAt}
			j++
		}
	}
	n.pre.SubmitBatch(q.jobs[:j])
}

// chargeHits attributes a dispatch's lease pass, d long for hits samples,
// as the loading worker attributes a hit it serves: local_hit on the
// dispatching rank's ledger row, and one load-latency observation per
// sample, each its share of the pass.
func (n *nodeRuntime) chargeHits(tctx obs.TraceCtx, d time.Duration, hits int) {
	ro := n.rt.ro
	if ro == nil {
		return
	}
	ro.ledger.add(tctx, causeLocalHit, d)
	per := (d / time.Duration(hits)).Seconds()
	for i := 0; i < hits; i++ {
		n.loadHist.Observe(per)
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
		if q.node.workAhead && len(q.reqs) == 0 && len(stops) == 0 && q.node.stageOne(loaderReach) {
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
	// prefetchLate counts demand misses on an id the prefetch loop or a loading
	// worker had in flight: prefetches issued, but too late to spare the
	// demand read.
	prefetchLate atomic.Uint64
	// failovers counts peer reads, demand or prefetch, that fell over to
	// the PFS because the peer broke its promise: a crashed or flaky peer,
	// or a copy that fails verification.
	failovers atomic.Uint64
	// evictionRaces counts peer reads that found the sample gone: the
	// holder evicted it after the directory lookup. Its PFS read is the
	// normal path, not a recovery.
	evictionRaces atomic.Uint64

	// loadHist times each sample materialization (runtimeObs; nil when
	// un-instrumented — nil-safe to observe).
	loadHist *obs.Histogram

	// feed is the node's prefetch walk and slots the read slots of the
	// loop that drains it (nil and none for demand-only strategies; only
	// the loop touches slots while it runs). workAhead makes the node's
	// loading workers stage from the feed while their queue is empty: the
	// simulator's rule (pipeline.(*sim).prefetch), on for a
	// loader.ThreadsDynamic strategy that prefetches and for no other — a
	// static or shared-pool strategy's idle loaders stay idle. All three
	// are fixed before the node's first loading worker starts.
	feed      *prefetchFeed
	slots     []prefetchSlot
	workAhead bool

	// tick wakes the prefetch loop at every iteration; prefWG waits for
	// it and stopPref stops it.
	tick     chan struct{}
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

// loadChunk materializes one run of a GPU batch's misses and hands it to
// preprocessing in a single SubmitBatch. tid is the worker's trace
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
	// The worker reads the chunk's misses back to back: each is issued
	// when the last one's wait should have returned (fetch).
	var late time.Duration
	for i, id := range w.ids {
		payload, owned, owner := n.loadPayload(id, w.iter, tid, w.ctx, &late)
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
// path, executed for real. The sample was absent when its batch was
// dispatched; the look at the local cache counts the access, and is a hit
// when a staging read has brought the sample in since. now is the iteration of the access, which the
// planned policies key their next-use lookups on. owned reports whether the returned slice is exclusively the
// data path's — recyclable after decode; a non-nil owner means the
// slice is leased from a cache that still retains it and must be
// released (never recycled) after decode (DESIGN.md §12). late is the
// worker's lateness carried between the reads of one chunk (fetch).
func (n *nodeRuntime) loadPayload(id dataset.SampleID, now cache.Iter, tid int64, tctx obs.TraceCtx, late *time.Duration) (payload []byte, owned bool, owner preproc.PayloadOwner) {
	ro := n.rt.ro
	rec := ro != nil && (ro.trace != nil || n.loadHist.On())
	var start time.Time
	var row *stallRow
	if rec {
		start = time.Now()
		row = ro.ledger.row(tctx)
	}
	payload, ok := n.cache.get(id, now)
	if ok {
		owner = n.cache
	} else {
		payload, owned, owner, _ = n.fetch(id, now, row, true, late)
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
// (via the distribution manager) or the PFS, and caches it locally,
// waiting out each leg of the walk on the caller's goroutine: the demand
// path (demand=true, a loading worker that will decode the sample) and
// stageOne (demand=false, a loading worker working ahead). The prefetch
// loop walks the same tierRead without blocking (prefetch.go). ok
// reports whether the sample is cached after the call; the other results
// are tierRead.result's.
//
// late, when non-nil, carries a worker's lateness from one read to its
// next: the read is issued *late before now, and *late becomes how late
// this walk's last wait on the run's clock returned. A thread reading
// samples back to back starts each read when the last one ends; how late
// the wait woke it is the clock's model error (DESIGN.md §15), while the
// work it does after waking still delays the next read.
func (n *nodeRuntime) fetch(id dataset.SampleID, now cache.Iter, row *stallRow, demand bool, late *time.Duration) (payload []byte, owned bool, owner preproc.PayloadOwner, ok bool) {
	var r tierRead
	var early time.Duration
	if late != nil {
		early = *late
	}
	n.begin(&r, id, now, row, demand, early)
	for {
		r.wait(n.rt.clk)
		if late != nil && r.leg != legBackoff {
			*late = n.rt.clk.now().Sub(r.due)
		}
		if n.step(&r) {
			return n.result(&r)
		}
	}
}

// tierRead is one fetch in progress: the one walk of the tiers, cut at
// its waits. begin books the first leg — a peer copy when the directory
// names a holder, else a PFS read — and each time the booked leg's
// deadline has passed, step finishes it and either ends the walk or
// books the next leg: a PFS read after a peer that delivered nothing, and
// a PFS read again after a transient failure's backoff. Demand and
// staging reads differ only in who is charged (row), in that demand peer
// hits count as remoteHits, and in buffer ownership (result).
//
// row, when non-nil, receives the attribution (DESIGN.md §14): the peer
// leg is peer_fetch whether it delivers or fails; a PFS read is recovery
// when the peer broke a promise (down or flaky, or a copy that fails
// verification) — exactly the failover events — and pfs otherwise: no
// holder, or one that evicted the sample after the directory lookup.
type tierRead struct {
	id     dataset.SampleID
	now    cache.Iter
	row    *stallRow
	demand bool

	leg tierLeg
	// due is when the booked leg is over: on the run's clock, except a
	// backoff's, which is wall-clock (see clock).
	due time.Time
	// copy is the peer leg's copy of the holder's bytes (nil: it had
	// none, or the fetch failed), evicted whether the holder had evicted
	// the sample.
	copy    []byte
	evicted bool
	pfs     pfsRead
	backoff time.Duration // the next transient failure's
	cause   stallCause    // the PFS leg's: causePFS or causeRecovery
	start   time.Time     // the current leg's, while row is recording

	// The outcome, once step reports the walk over.
	payload      []byte
	retained, ok bool
}

// tierLeg is what a tierRead has booked.
type tierLeg uint8

const (
	legPeer    tierLeg = iota // a peer copy from the distribution manager
	legPFS                    // a PFS read
	legBackoff                // the wait after a transient PFS failure
)

// begin starts r's walk for id at iteration now and books its first leg
// as issued early before the clock's now: 0 but for a prefetch slot's
// next read, which starts where the slot's last one ended (finishDue).
func (n *nodeRuntime) begin(r *tierRead, id dataset.SampleID, now cache.Iter, row *stallRow, demand bool, early time.Duration) {
	*r = tierRead{id: id, now: now, row: row, demand: demand, backoff: pfsRetryBase, cause: causePFS}
	// The first leg is charged from here: a demand read's look at the
	// feed, which may wait for its lock, is part of the read.
	r.startLeg()
	if demand && n.feed != nil && n.feed.inFlight(id) {
		// The prefetch loop or a loading worker claimed this id and has
		// not staged it yet: the prefetch was issued, but too late to
		// spare the demand read.
		n.prefetchLate.Add(1)
	}
	if peer := n.rt.dir.Holder(id, n.node); peer >= 0 {
		r.leg = legPeer
		r.copy, r.evicted, r.due = n.rt.dm.book(peer, id, n.rt.ds.Size(id), early)
		return
	}
	n.bookPFS(r, early)
}

func (r *tierRead) startLeg() {
	if r.row != nil {
		r.start = time.Now()
	}
}

// bookPFS books a PFS read for r, issued early before now, counting it
// as a read or, drawn as a transient failure, as a retry.
func (n *nodeRuntime) bookPFS(r *tierRead, early time.Duration) {
	var err error
	if r.pfs, err = n.rt.pfs.book(r.id, early); err != nil {
		// Unreachable for in-range ids; surface loudly if it happens.
		panic(fmt.Sprintf("runtime: PFS read failed: %v", err))
	}
	r.leg, r.due = legPFS, r.pfs.due
	if r.pfs.failed {
		n.pfsRetries.Add(1)
	} else {
		n.pfsReads.Add(1)
	}
}

// wait waits out r's booked leg on the caller's goroutine.
func (r *tierRead) wait(clk clock) {
	if r.leg == legBackoff {
		time.Sleep(time.Until(r.due))
		return
	}
	clk.until(r.due)
}

// left is how long r's booked leg still runs, given the clock's time now.
func (r *tierRead) left(now time.Time) time.Duration {
	if r.leg == legBackoff {
		return time.Until(r.due)
	}
	return r.due.Sub(now)
}

// step finishes r's booked leg, whose deadline has passed, and books the
// next one; it reports whether the walk is over, with r's outcome set.
func (n *nodeRuntime) step(r *tierRead) bool {
	switch r.leg {
	case legBackoff:
		n.bookPFS(r, 0)
		return false
	case legPeer:
		// The holder's cache copied into a pooled buffer just for us. One
		// that delivers the wrong bytes delivered nothing, so its copy
		// goes back to the pool unread.
		payload := r.copy
		r.copy = nil
		if payload != nil && peerCopyHook != nil {
			peerCopyHook(payload)
		}
		if payload != nil && dataset.VerifyPayload(payload, n.rt.pfs.seed, r.id) != nil {
			preproc.PutPayloadBuf(payload)
			payload = nil
		}
		if r.row != nil {
			r.row.add(causePeerFetch, time.Since(r.start))
		}
		if payload != nil {
			if r.demand {
				n.remoteHits.Add(1)
			}
			n.insert(r, payload)
			return true
		}
		if r.evicted {
			n.evictionRaces.Add(1)
		} else {
			n.failovers.Add(1) // the peer broke its promise: fall to the PFS
			r.cause = causeRecovery
		}
		r.startLeg()
		n.bookPFS(r, 0)
		return false
	}
	if r.pfs.failed {
		// PFS reads back off exponentially between transient failures and
		// never give up: training cannot proceed without the sample, so
		// real loaders surface storage outages as hangs rather than
		// corrupt batches.
		r.leg, r.due = legBackoff, time.Now().Add(r.backoff)
		r.backoff = nextBackoff(r.backoff)
		return false
	}
	payload, err := n.rt.pfs.deliver(r.pfs)
	if err != nil {
		panic(fmt.Sprintf("runtime: PFS read failed: %v", err))
	}
	n.insert(r, payload)
	if r.row != nil {
		r.row.add(r.cause, time.Since(r.start))
	}
	return true
}

// insert offers r's delivered payload to the local cache. A demand read
// takes a decode lease on a buffer the cache retains, in the same
// critical section as the insert.
func (n *nodeRuntime) insert(r *tierRead, payload []byte) {
	if insertHook != nil {
		insertHook(n, r.id, r.due, r.demand)
	}
	r.payload = payload
	r.ok, r.retained = n.cache.put(r.id, payload, r.now, r.demand)
}

// insertHook, when set (tests only), sees each read that delivered — its
// sample, the deadline of its last leg and whether it is a demand read —
// on the reading goroutine, just before the payload is offered to the
// cache.
var insertHook func(n *nodeRuntime, id dataset.SampleID, due time.Time, demand bool)

// result settles buffer ownership of a finished walk (DESIGN.md §12): a
// staging read returns no buffer and recycles on the spot one the cache
// did not retain; a demand read takes a decode lease when the local
// cache retained its buffer (owner = the cache) and otherwise owns it
// (owned) — the cache kept its own earlier copy, or refused. ok reports
// whether the sample is cached.
func (n *nodeRuntime) result(r *tierRead) (payload []byte, owned bool, owner preproc.PayloadOwner, ok bool) {
	switch {
	case !r.demand:
		if !r.retained {
			preproc.PutPayloadBuf(r.payload) // nothing will ever read it
		}
		return nil, false, nil, r.ok
	case r.retained:
		return r.payload, false, n.cache, r.ok
	default:
		return r.payload, true, nil, r.ok
	}
}

// peerCopyHook, when set (tests only), sees each peer copy before it is
// verified, and may corrupt it.
var peerCopyHook func(payload []byte)

// A PFS read that failed transiently is booked again after a backoff that
// doubles from pfsRetryBase up to pfsRetryMax. The backoff is wall-clock:
// it models a client's retry timer, not the storage.
const (
	pfsRetryBase = time.Millisecond
	pfsRetryMax  = 16 * time.Millisecond
)

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
