package runtime

import (
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/sampler"
)

// prefetchClaim is one id the feed handed out: the sample, and where in
// the walk it sits (global iteration of its window, interleaved
// offset within it), which is where a refusal rewinds the walk to.
type prefetchClaim struct {
	id   dataset.SampleID
	iter int
	off  int
}

// prefetchFeed hands out a node's future accesses from its sampler.Walk,
// the walk the simulator's prefetch (pipeline.(*sim).prefetch) uses too:
// windows nearest iteration first, each interleaved across the node's
// GPUs. The feed adds the runtime's rules: where the walk starts, the ids
// it passes over, and the rewind and pause after a refusal.
//
// The node's prefetch loop claims ids from it for its read slots, and so
// do the loading workers of a dynamic strategy while their queue is empty
// (workAhead); each settles its claim when the read is done. A claimed id
// is in flight until settled and is never handed out twice, so no sample
// is staged by two of them. A claim the cache refused rewinds the walk
// to it and pauses the feed until the node's iteration advances: later
// candidates are needed even later, so the policy would refuse them too,
// and each attempt costs a storage read.
//
// Lock order: feed.mu → nodeCache.mu (resident is nodeCache.contains) →
// Directory.mu. Nothing takes feed.mu with either of the others held.
type prefetchFeed struct {
	depth    int
	resident func(dataset.SampleID) bool

	mu   sync.Mutex
	walk sampler.Walk
	// inflight marks the claimed, unsettled ids, indexed by sample id.
	inflight []bool
	// resumeAt pauses the feed after a refusal: claims return nothing
	// while the node's iteration is below it.
	resumeAt int
	pauses   uint64
}

func newPrefetchFeed(sched *sampler.Schedule, node, gpus, totalIters, depth int, resident func(dataset.SampleID) bool) *prefetchFeed {
	return &prefetchFeed{
		depth:    depth,
		resident: resident,
		walk:     sched.NewWalk(node, gpus, totalIters),
		inflight: make([]bool, sched.Dataset().Len()),
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

// feedDepth is how many iterations ahead a node's feed reaches: the
// strategy's depth, capped at half the node cache's turnover horizon and
// never below loaderReach. The horizon is how many iterations of the
// node's demand (perIter samples each, GPUs x batch) the cache holds at
// the dataset's mean sample size. A walk that reaches past it fills the
// cache with samples needed later than ones it already holds, so the
// farthest-next-use victim rule evicts what the node reuses next epoch
// and each of those is read from storage again; half the horizon leaves
// the other half of the cache to that reuse (DESIGN.md §8 has the depth
// sweep). A cache that holds the whole dataset evicts nothing and keeps
// the strategy's depth, and a demand-only strategy stays at 0. The
// simulator needs no such cap: its walk is bounded per iteration by its
// prefetch budget (DESIGN.md §6).
func feedDepth(depth int, cacheBytes, datasetBytes, meanSize int64, perIter int) int {
	if cacheBytes >= datasetBytes {
		return depth
	}
	horizon := int(cacheBytes/meanSize) / perIter
	return min(depth, max(loaderReach, horizon/2))
}

// claim hands out the next id worth fetching and marks it in flight; ok
// is false when there is none. now is the iteration the ranks are
// training on; the walk covers windows now+feedNear to now+reach,
// bounded by the feed's depth and the last iteration of the run. The
// prefetch loop passes the depth, idle loading workers loaderReach: one
// walk serves both, so a loader is handed something only while the walk
// has not yet left the near windows. Resident and in-flight ids are passed over.
// Nothing to hand out means the feed is caught up or paused; the caller
// waits for the next iteration.
func (f *prefetchFeed) claim(now, reach int) (c prefetchClaim, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if now < f.resumeAt {
		return c, false
	}
	f.walk.StartAt(now + feedNear)
	if reach > f.depth {
		reach = f.depth
	}
	for {
		id, ok := f.walk.Next(now + reach)
		if !ok {
			return c, false
		}
		iter, off := f.walk.Pos()
		f.walk.Skip()
		if f.inflight[id] || f.resident(id) {
			continue
		}
		f.inflight[id] = true
		return prefetchClaim{id: id, iter: iter, off: off}, true
	}
}

// settle ends a claim. staged reports whether the sample is in the cache
// now; when it is not (the policy refused it) the walk goes back to the
// claim, so it is the first thing handed out again, and the feed pauses
// until the iteration advances past now — the iteration the refusal was
// decided at.
func (f *prefetchFeed) settle(c prefetchClaim, staged bool, now int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.inflight[c.id] = false
	if staged {
		return
	}
	f.walk.Back(c.iter, c.off)
	if f.resumeAt <= now {
		f.resumeAt = now + 1
		f.pauses++
	}
}

// inFlight reports whether the prefetch loop or a loading worker is
// staging id right now.
func (f *prefetchFeed) inFlight(id dataset.SampleID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inflight[id]
}

// pauseCount is how many times a refusal paused the feed.
func (f *prefetchFeed) pauseCount() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pauses
}

// prefetchSlots is the number of read slots each node's prefetch loop
// owns for spec: the strategy's PrefetchThreads, at least one for any
// strategy that prefetches at all, none for demand-only strategies.
func prefetchSlots(spec loader.Spec) int {
	if spec.PrefetchDepth <= 0 {
		return 0
	}
	if spec.PrefetchThreads < 1 {
		return 1
	}
	return spec.PrefetchThreads
}

// prefetchSlot is one of a prefetch loop's read slots: while busy, the
// claim it stages, the iteration it was claimed at, and its read.
type prefetchSlot struct {
	c    prefetchClaim
	now  int
	r    tierRead
	busy bool
}

// prefetchLoop drains the node's feed as far as it reaches (feedDepth)
// through the node's read slots until stopPref closes: the background
// prefetching of PrefetchThreads helpers, which compete with demand
// loading for storage bandwidth exactly as real background prefetching
// does. Every free slot claims and books its read without waiting; the
// loop then waits once, until the earliest booked deadline, and finishes
// every slot that is due, booking each again as soon as it is free. With
// nothing to claim and nothing in flight it waits for the next iteration.
func (n *nodeRuntime) prefetchLoop() {
	defer n.prefWG.Done()
	defer n.handBack()
	for !n.stopping() {
		if n.bookFree() == 0 {
			// Caught up or paused: wait for the next iteration.
			select {
			case <-n.stopPref:
				return
			case <-n.tick:
			}
			continue
		}
		n.waitFirst()
		n.finishDue()
	}
}

// bookFree books a read for every free slot, stopping at the first the
// feed has nothing for, and returns how many slots are busy.
func (n *nodeRuntime) bookFree() int {
	busy, claiming := 0, true
	for i := range n.slots {
		s := &n.slots[i]
		if !s.busy && claiming {
			claiming = n.book(s)
		}
		if s.busy {
			busy++
		}
	}
	return busy
}

// book claims the feed's next id for the free slot s and books its read;
// it reports false when the feed handed out nothing.
func (n *nodeRuntime) book(s *prefetchSlot) bool {
	now := int(n.iterNow.Load())
	c, ok := n.feed.claim(now, n.feed.depth)
	if !ok {
		return false
	}
	s.c, s.now, s.busy = c, now, true
	n.begin(&s.r, c.id, cache.Iter(now), n.rt.ro.prefetchRow(n.node), false)
	return true
}

// waitFirst waits until the earliest deadline of the busy slots: one
// wait on the run's clock, or on the wall clock when the earliest is a
// failed read's backoff. It returns at once when a slot is due already.
func (n *nodeRuntime) waitFirst() {
	now := n.rt.clk.now()
	var first *tierRead
	var left time.Duration
	for i := range n.slots {
		s := &n.slots[i]
		if !s.busy {
			continue
		}
		if d := s.r.left(now); first == nil || d < left {
			first, left = &s.r, d
		}
	}
	if first != nil && left > 0 {
		first.wait(n.rt.clk)
	}
}

// finishDue steps every busy slot whose deadline has passed. A slot whose
// walk is over settles its claim and books the feed's next id at once,
// so its read runs while the loop finishes the other due slots.
func (n *nodeRuntime) finishDue() {
	now := n.rt.clk.now()
	claiming := true
	for i := range n.slots {
		s := &n.slots[i]
		if !s.busy || s.r.left(now) > 0 || !n.step(&s.r) {
			continue
		}
		_, _, _, staged := n.result(&s.r)
		n.settleStaged(s.c, staged, s.now, false)
		s.busy = false
		if claiming && !n.stopping() {
			claiming = n.book(s)
		}
	}
}

// handBack ends the loop's busy slots unfinished when the run stops: a
// peer copy not yet delivered goes back to the payload pool and the claim
// back to the feed, unstaged.
func (n *nodeRuntime) handBack() {
	for i := range n.slots {
		s := &n.slots[i]
		if !s.busy {
			continue
		}
		if s.r.copy != nil {
			n.cache.recycle(s.r.copy)
			s.r.copy = nil
		}
		n.feed.settle(s.c, false, s.now)
		s.busy = false
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

// stageOne claims the feed's next id within reach windows and stages it,
// waiting for the read: what a loading worker with an empty queue does
// (workAhead). The fetch is charged to the node's prefetch ledger row, as
// the loop's are: no rank waits for it. It reports false when there was
// nothing to claim — the feed is caught up within reach or paused, or the
// run is stopping.
func (n *nodeRuntime) stageOne(reach int) bool {
	if n.stopping() {
		return false
	}
	now := int(n.iterNow.Load())
	c, ok := n.feed.claim(now, reach)
	if !ok {
		return false
	}
	_, _, _, staged := n.fetch(c.id, cache.Iter(now), n.rt.ro.prefetchRow(n.node), false)
	n.settleStaged(c, staged, now, true)
	return true
}

// settleStaged settles a claim claimed at iteration now and counts what
// it staged, byLoader when a loading worker staged it.
func (n *nodeRuntime) settleStaged(c prefetchClaim, staged bool, now int, byLoader bool) {
	n.feed.settle(c, staged, now)
	if staged {
		n.prefetched.Add(1)
		if byLoader {
			n.stagedByLoaders.Add(1)
		}
	}
}
