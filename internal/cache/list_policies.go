package cache

import (
	"repro/internal/dataset"
)

// lruPolicy evicts the least-recently-used sample. It models the behaviour
// a loader gets "for free" from the OS page cache — the effective policy
// under PyTorch DataLoader and DALI, which have no application-level
// eviction logic of their own.
type lruPolicy struct {
	name       string
	order      *denseList // front = most recent
	touchOnGet bool       // false turns this into FIFO
}

// NewLRU returns a least-recently-used policy.
func NewLRU() Policy {
	return &lruPolicy{
		name:       "lru",
		order:      newDenseList(),
		touchOnGet: true,
	}
}

// NewFIFO returns a first-in-first-out policy (insertion order, ignoring
// hits) — a common low-cost baseline.
func NewFIFO() Policy {
	return &lruPolicy{
		name:  "fifo",
		order: newDenseList(),
	}
}

func (p *lruPolicy) Name() string { return p.name }

func (p *lruPolicy) reserve(numSamples int) { p.order.reserve(numSamples) }

func (p *lruPolicy) OnPut(id dataset.SampleID, _ Iter) {
	if p.order.contains(id) {
		p.order.moveToFront(id)
		return
	}
	p.order.pushFront(id)
}

func (p *lruPolicy) OnGet(id dataset.SampleID, _ Iter) {
	if !p.touchOnGet {
		return
	}
	if p.order.contains(id) {
		p.order.moveToFront(id)
	}
}

func (p *lruPolicy) OnRemove(id dataset.SampleID) {
	if p.order.contains(id) {
		p.order.remove(id)
	}
}

func (p *lruPolicy) Victim(_ Iter, _ dataset.SampleID) (dataset.SampleID, bool) {
	return p.order.back()
}

func (p *lruPolicy) DrainExpired(_ Iter, _ func(dataset.SampleID)) {}

// neverEvict refuses all evictions: once the cache fills, further inserts
// are rejected. This is the MinIO behaviour the related-work section calls
// out: "once data samples are cached, they are never evicted out of the
// cache".
type neverEvict struct{}

// NewNeverEvict returns the never-evict (MinIO-style) policy.
func NewNeverEvict() Policy { return neverEvict{} }

func (neverEvict) Name() string                              { return "never-evict" }
func (neverEvict) OnPut(dataset.SampleID, Iter)              {}
func (neverEvict) OnGet(dataset.SampleID, Iter)              {}
func (neverEvict) OnRemove(dataset.SampleID)                 {}
func (neverEvict) DrainExpired(Iter, func(dataset.SampleID)) {}
func (neverEvict) Victim(Iter, dataset.SampleID) (dataset.SampleID, bool) {
	return NoSample, false
}
