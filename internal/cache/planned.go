package cache

import (
	"repro/internal/dataset"
)

// NoAccess mirrors access.NoAccess: the sample is never used again.
const NoAccess Iter = -1

// farFuture is the heap key for samples never accessed again; larger than
// any real iteration index.
const farFuture Iter = 1 << 30

// Oracle exposes the future-access knowledge a clairvoyant policy needs.
// access.Plan satisfies it.
type Oracle interface {
	// Future returns the first iteration strictly after `after` at which
	// this node accesses the sample (NoAccess if none) and the number of
	// its accesses strictly after `after`. One call, because the policies
	// need both on every access and both come from the same search of the
	// sample's access list.
	Future(id dataset.SampleID, after Iter) (next Iter, remaining int)
	// IterationsPerEpoch returns I.
	IterationsPerEpoch() int
}

// heapEntry is one (id, nextUse, version) record in the lazy max-heap.
// Stale entries (older versions of an id, or removed ids) are skipped at
// pop time.
type heapEntry struct {
	id  dataset.SampleID
	key Iter
	ver uint32
}

// plannedPolicy is the clairvoyant machinery shared by Belady and Lobster:
// it tracks, for every cached sample, its next use according to the oracle
// and can evict the sample whose next use is farthest away, refusing to
// evict anything needed sooner than the incoming sample (the "prioritize
// the prefetches with the nearest reuse distance" rule).
//
// All per-sample state is slice-indexed by the dense id — vers[id] == 0
// means "not cached" and live versions start at 1 — and the max-heap is
// hand-rolled over []heapEntry, so the one-push-per-access hot path does
// not allocate (container/heap's any-boxed Push was the top allocation
// site of a simulated iteration).
type plannedPolicy struct {
	name   string
	oracle Oracle
	h      []heapEntry
	vers   []uint32 // per dense id; 0 = absent, live versions start at 1

	// Lobster's proactive sub-policies (reuse count, reuse distance),
	// off for plain Belady.
	proactive  bool
	isLastCopy func(dataset.SampleID) bool
	expired    []dataset.SampleID
	expiredSet []bool // per dense id
}

// NewBelady returns the clairvoyant OPT policy: evict the cached sample
// with the farthest next use; refuse inserts whose own next use is the
// farthest. It is the hit-ratio upper bound used in tests and ablations.
func NewBelady(oracle Oracle) Policy {
	return &plannedPolicy{
		name:   "belady",
		oracle: oracle,
	}
}

// LobsterOptions configures the Lobster eviction policy.
type LobsterOptions struct {
	// IsLastCopy, when non-nil, protects the last cached copy of a sample
	// in the node group from reuse-count eviction ("unless no other node
	// in the group holds a copy", Section 4.4).
	IsLastCopy func(dataset.SampleID) bool
}

// NewLobster returns the paper's eviction policy: the Belady-style
// farthest-next-use victim selection coordinated with prefetching, plus the
// two proactive sub-policies of Section 4.4 (reuse count, reuse distance).
func NewLobster(oracle Oracle, opts LobsterOptions) Policy {
	return &plannedPolicy{
		name:       "lobster",
		oracle:     oracle,
		proactive:  true,
		isLastCopy: opts.IsLastCopy,
	}
}

func (p *plannedPolicy) Name() string { return p.name }

func (p *plannedPolicy) reserve(numSamples int) {
	p.vers = grown(p.vers, numSamples-1, 0)
	p.expiredSet = grown(p.expiredSet, numSamples-1, false)
}

// touch records an access of id at iteration now (an insertion or a hit):
// it asks the oracle once for the sample's future after now, pushes the
// new next use as the sample's live heap entry and applies the proactive
// rules to it.
func (p *plannedPolicy) touch(id dataset.SampleID, now Iter) {
	next, remaining := p.oracle.Future(id, now)
	key := next
	if next == NoAccess {
		key = farFuture
	}
	if int(id) >= len(p.vers) {
		p.vers = grown(p.vers, int(id), 0)
		p.expiredSet = grown(p.expiredSet, int(id), false)
	}
	v := p.vers[id] + 1
	p.vers[id] = v
	p.heapPush(heapEntry{id: id, key: key, ver: v})
	p.applyRules(id, now, next, remaining)
}

// heapPush and heapPop implement the standard binary max-heap sift (the
// same comparison and child-selection order as container/heap with
// Less(i,j) = key_i > key_j), minus the interface boxing.

//lint:hotpath one heap op per simulated cache access; container/heap's interface boxing was why this heap is hand-rolled
func (p *plannedPolicy) heapPush(e heapEntry) {
	//lint:allow hotpath amortized doubling growth: O(1) per push; the heap holds one entry per access until stale ones surface or compact drops them
	p.h = append(p.h, e)
	j := len(p.h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if p.h[i].key >= p.h[j].key {
			break
		}
		p.h[i], p.h[j] = p.h[j], p.h[i]
		j = i
	}
}

//lint:hotpath one heap op per simulated cache access; container/heap's interface boxing was why this heap is hand-rolled
func (p *plannedPolicy) heapPop() {
	n := len(p.h) - 1
	p.h[0], p.h[n] = p.h[n], p.h[0]
	p.h = p.h[:n]
	p.siftDown(0)
}

// siftDown restores the heap property below index i.
func (p *plannedPolicy) siftDown(i int) {
	n := len(p.h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && p.h[j2].key > p.h[j].key {
			j = j2
		}
		if p.h[j].key <= p.h[i].key {
			break
		}
		p.h[i], p.h[j] = p.h[j], p.h[i]
		i = j
	}
}

// compact rebuilds the heap from its live entries once stale ones
// outnumber them: every access pushes an entry and only stale entries
// that reach the top are ever popped, so without this the heap grows with
// the length of the run, not the size of the cache. live is the number
// of cached samples (exactly one heap entry each is current). Rebuilding
// reorders entries of equal key, so victims among ties can differ from
// an uncompacted run's — see Cache.Compact for who may call it.
func (p *plannedPolicy) compact(live int) {
	if len(p.h) <= 2*live+1024 {
		return
	}
	kept := p.h[:0]
	for _, e := range p.h {
		if v := p.vers[e.id]; v != 0 && v == e.ver {
			kept = append(kept, e)
		}
	}
	p.h = kept
	for i := len(p.h)/2 - 1; i >= 0; i-- {
		p.siftDown(i)
	}
}

func (p *plannedPolicy) OnPut(id dataset.SampleID, now Iter) { p.touch(id, now) }

// OnGet: the access at `now` just happened; the relevant key is the use
// after it.
func (p *plannedPolicy) OnGet(id dataset.SampleID, now Iter) { p.touch(id, now) }

// applyRules queues proactive evictions per the Lobster sub-policies,
// given the sample's next use and remaining uses after now. Checks run
// when a sample is touched — the only moments its future changes — so the
// cost is O(1) per access. touch has already grown the per-id slices to
// cover id.
func (p *plannedPolicy) applyRules(id dataset.SampleID, now, next Iter, remaining int) {
	if !p.proactive || p.expiredSet[id] {
		return
	}
	// Reuse count rule: no accesses left on this node => evict, unless
	// this is the group's last copy.
	if remaining == 0 {
		if p.isLastCopy == nil || !p.isLastCopy(id) {
			p.expiredSet[id] = true
			p.expired = append(p.expired, id)
		}
		return
	}
	// Reuse distance rule: next use beyond the end of the next epoch
	// (distance > 2I - h, h = position within the current epoch) => the
	// sample is safe to drop to make room for prefetches.
	iters := Iter(p.oracle.IterationsPerEpoch())
	h := now % iters
	if next-now > 2*iters-h {
		p.expiredSet[id] = true
		p.expired = append(p.expired, id)
	}
}

func (p *plannedPolicy) OnRemove(id dataset.SampleID) {
	if int(id) < len(p.vers) {
		p.vers[id] = 0
		p.expiredSet[id] = false
	}
	// Heap entries become stale and are skipped lazily.
}

func (p *plannedPolicy) Victim(now Iter, incoming dataset.SampleID) (dataset.SampleID, bool) {
	top, ok := p.peek()
	if !ok {
		return NoSample, false
	}
	if incoming != NoSample {
		inKey, _ := p.oracle.Future(incoming, now)
		if inKey == NoAccess {
			inKey = farFuture
		}
		// Never evict something needed sooner than (or when) the incoming
		// sample is: rejecting the insert wastes less cache.
		if top.key <= inKey {
			return NoSample, false
		}
	}
	return top.id, true
}

// peek returns the live max entry without removing it, discarding stale
// heap entries on the way.
//
//lint:hotpath called once per eviction decision inside the simulated access loop
func (p *plannedPolicy) peek() (heapEntry, bool) {
	for len(p.h) > 0 {
		top := p.h[0]
		if v := p.vers[top.id]; v != 0 && v == top.ver {
			return top, true
		}
		p.heapPop() // stale
	}
	return heapEntry{}, false
}

func (p *plannedPolicy) DrainExpired(_ Iter, emit func(dataset.SampleID)) {
	for _, id := range p.expired {
		if p.expiredSet[id] {
			emit(id) // cache calls OnRemove, clearing expiredSet
		}
	}
	p.expired = p.expired[:0]
}

// nopfsPolicy models the NoPFS eviction: clairvoyant prefetching upstream,
// but "a simpler cache eviction policy" — it drops samples that are fully
// consumed (reuse count zero, without last-copy protection) and otherwise
// falls back to LRU order. It cannot "immediately evict data samples with
// long reuse distances" (Section 6), which is exactly the gap Lobster's
// reuse-distance rule closes.
type nopfsPolicy struct {
	lru        *lruPolicy
	oracle     Oracle
	expired    []dataset.SampleID
	expiredSet []bool // per dense id
}

// NewNoPFS returns the NoPFS-style eviction policy.
func NewNoPFS(oracle Oracle) Policy {
	return &nopfsPolicy{
		lru:    NewLRU().(*lruPolicy),
		oracle: oracle,
	}
}

func (p *nopfsPolicy) Name() string { return "nopfs" }

func (p *nopfsPolicy) reserve(numSamples int) {
	p.lru.reserve(numSamples)
	p.expiredSet = grown(p.expiredSet, numSamples-1, false)
}

func (p *nopfsPolicy) OnPut(id dataset.SampleID, now Iter) {
	p.lru.OnPut(id, now)
	p.check(id, now)
}

func (p *nopfsPolicy) OnGet(id dataset.SampleID, now Iter) {
	p.lru.OnGet(id, now)
	p.check(id, now)
}

func (p *nopfsPolicy) check(id dataset.SampleID, now Iter) {
	if int(id) >= len(p.expiredSet) {
		p.expiredSet = grown(p.expiredSet, int(id), false)
	}
	if p.expiredSet[id] {
		return
	}
	if _, remaining := p.oracle.Future(id, now); remaining == 0 {
		p.expiredSet[id] = true
		p.expired = append(p.expired, id)
	}
}

func (p *nopfsPolicy) OnRemove(id dataset.SampleID) {
	p.lru.OnRemove(id)
	if int(id) < len(p.expiredSet) {
		p.expiredSet[id] = false
	}
}

func (p *nopfsPolicy) Victim(now Iter, incoming dataset.SampleID) (dataset.SampleID, bool) {
	return p.lru.Victim(now, incoming)
}

func (p *nopfsPolicy) DrainExpired(_ Iter, emit func(dataset.SampleID)) {
	for _, id := range p.expired {
		if p.expiredSet[id] {
			emit(id)
		}
	}
	p.expired = p.expired[:0]
}
