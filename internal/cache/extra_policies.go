package cache

import (
	"container/heap"
	"container/list"

	"repro/internal/dataset"
)

// lfuPolicy evicts the least-frequently-used sample (ties broken by
// recency). Under epoch-uniform sampling all long-lived samples converge
// to the same frequency, so LFU degenerates gracefully toward LRU — a
// useful control in the eviction ablation: frequency carries no signal
// when the access law gives every sample the same long-run rate.
type lfuPolicy struct {
	entries map[dataset.SampleID]*lfuEntry
	h       lfuHeap
	tick    uint64 // recency tie-break
}

type lfuEntry struct {
	id    dataset.SampleID
	count uint64
	last  uint64
	idx   int
}

type lfuHeap []*lfuEntry

func (h lfuHeap) Len() int { return len(h) }
func (h lfuHeap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].last < h[j].last
}
func (h lfuHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *lfuHeap) Push(x any) {
	e := x.(*lfuEntry)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *lfuHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// NewLFU returns a least-frequently-used policy.
func NewLFU() Policy {
	return &lfuPolicy{entries: make(map[dataset.SampleID]*lfuEntry)}
}

func (p *lfuPolicy) Name() string { return "lfu" }

func (p *lfuPolicy) OnPut(id dataset.SampleID, _ Iter) {
	p.tick++
	if e, ok := p.entries[id]; ok {
		e.count++
		e.last = p.tick
		heap.Fix(&p.h, e.idx)
		return
	}
	e := &lfuEntry{id: id, count: 1, last: p.tick}
	p.entries[id] = e
	heap.Push(&p.h, e)
}

func (p *lfuPolicy) OnGet(id dataset.SampleID, _ Iter) {
	p.tick++
	if e, ok := p.entries[id]; ok {
		e.count++
		e.last = p.tick
		heap.Fix(&p.h, e.idx)
	}
}

func (p *lfuPolicy) OnRemove(id dataset.SampleID) {
	if e, ok := p.entries[id]; ok {
		heap.Remove(&p.h, e.idx)
		delete(p.entries, id)
	}
}

func (p *lfuPolicy) Victim(_ Iter, _ dataset.SampleID) (dataset.SampleID, bool) {
	if len(p.h) == 0 {
		return NoSample, false
	}
	return p.h[0].id, true
}

func (p *lfuPolicy) DrainExpired(_ Iter, _ func(dataset.SampleID)) {}

// arcPolicy is a simplified ARC (Adaptive Replacement Cache): two resident
// LRU lists — T1 (seen once) and T2 (seen at least twice) — plus ghost
// lists B1/B2 of recently evicted ids that steer the adaptive target size
// `p` for T1. Ghost hits on B1 grow p (favour recency); ghost hits on B2
// shrink it (favour frequency).
//
// ARC adapts by entry count rather than bytes, which is the standard
// formulation; for the sample-cache workload (sizes within one order of
// magnitude) the distinction is immaterial.
type arcPolicy struct {
	t1, t2, b1, b2 *list.List
	where          map[dataset.SampleID]*arcEntry
	p              int // target |T1|
	capHint        int // adaptation scale: max resident entries seen
}

type arcEntry struct {
	elem *list.Element
	loc  byte // 1=T1 2=T2 3=B1 4=B2
}

// NewARC returns the adaptive replacement policy.
func NewARC() Policy {
	return &arcPolicy{
		t1: list.New(), t2: list.New(), b1: list.New(), b2: list.New(),
		where: make(map[dataset.SampleID]*arcEntry),
	}
}

func (a *arcPolicy) Name() string { return "arc" }

func (a *arcPolicy) resident() int { return a.t1.Len() + a.t2.Len() }

func (a *arcPolicy) OnPut(id dataset.SampleID, _ Iter) {
	e, ok := a.where[id]
	switch {
	case ok && (e.loc == 1 || e.loc == 2):
		a.promote(id, e)
	case ok && e.loc == 3: // ghost hit in B1: favour recency
		a.p = min(a.p+max(a.b2.Len()/max(a.b1.Len(), 1), 1), a.capHint)
		a.b1.Remove(e.elem)
		e.elem = a.t2.PushFront(id)
		e.loc = 2
	case ok && e.loc == 4: // ghost hit in B2: favour frequency
		a.p = max(a.p-max(a.b1.Len()/max(a.b2.Len(), 1), 1), 0)
		a.b2.Remove(e.elem)
		e.elem = a.t2.PushFront(id)
		e.loc = 2
	default:
		a.where[id] = &arcEntry{elem: a.t1.PushFront(id), loc: 1}
	}
	if r := a.resident(); r > a.capHint {
		a.capHint = r
	}
	a.trimGhosts()
}

func (a *arcPolicy) OnGet(id dataset.SampleID, _ Iter) {
	if e, ok := a.where[id]; ok && (e.loc == 1 || e.loc == 2) {
		a.promote(id, e)
	}
}

func (a *arcPolicy) promote(id dataset.SampleID, e *arcEntry) {
	switch e.loc {
	case 1:
		a.t1.Remove(e.elem)
	case 2:
		a.t2.Remove(e.elem)
	}
	e.elem = a.t2.PushFront(id)
	e.loc = 2
}

// OnRemove is called when the cache evicts: the id moves into the matching
// ghost list instead of vanishing, which is where ARC's adaptivity lives.
func (a *arcPolicy) OnRemove(id dataset.SampleID) {
	e, ok := a.where[id]
	if !ok {
		return
	}
	switch e.loc {
	case 1:
		a.t1.Remove(e.elem)
		e.elem = a.b1.PushFront(id)
		e.loc = 3
	case 2:
		a.t2.Remove(e.elem)
		e.elem = a.b2.PushFront(id)
		e.loc = 4
	case 3:
		a.b1.Remove(e.elem)
		delete(a.where, id)
	case 4:
		a.b2.Remove(e.elem)
		delete(a.where, id)
	}
	a.trimGhosts()
}

// trimGhosts bounds each ghost list to the adaptation scale.
func (a *arcPolicy) trimGhosts() {
	for _, g := range []*list.List{a.b1, a.b2} {
		for g.Len() > a.capHint && g.Len() > 0 {
			tail := g.Back()
			id := tail.Value.(dataset.SampleID)
			g.Remove(tail)
			delete(a.where, id)
		}
	}
}

func (a *arcPolicy) Victim(_ Iter, _ dataset.SampleID) (dataset.SampleID, bool) {
	// Prefer T1's LRU while it exceeds the target p, else T2's LRU.
	if a.t1.Len() > 0 && (a.t1.Len() > a.p || a.t2.Len() == 0) {
		return a.t1.Back().Value.(dataset.SampleID), true
	}
	if a.t2.Len() > 0 {
		return a.t2.Back().Value.(dataset.SampleID), true
	}
	if a.t1.Len() > 0 {
		return a.t1.Back().Value.(dataset.SampleID), true
	}
	return NoSample, false
}

func (a *arcPolicy) DrainExpired(_ Iter, _ func(dataset.SampleID)) {}
