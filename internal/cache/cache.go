// Package cache implements the node-local training-sample cache with
// pluggable eviction policies.
//
// It provides the baseline policies the paper compares against (LRU as used
// implicitly by PyTorch/DALI through the OS page cache, FIFO, the
// never-evict policy of MinIO, the NoPFS eviction) as well as the paper's
// contribution: the Lobster policy combining the reuse-count rule, the
// reuse-distance rule, and coordination with prefetching (Section 4.4).
// A clairvoyant Belady/OPT policy is included as the upper bound used in
// tests and ablations.
package cache

import (
	"fmt"

	"repro/internal/dataset"
)

// NoSample is passed to Victim when eviction is driven by capacity
// pressure without a specific incoming sample.
const NoSample dataset.SampleID = -1

// Iter is a global iteration timestamp (mirrors access.Iter; redeclared to
// keep this package independent of plan construction).
type Iter = int32

// Policy is the eviction-decision interface. Implementations keep whatever
// per-entry metadata they need; the Cache guarantees the call protocol:
// OnPut for every inserted id, OnGet for every hit, OnRemove exactly once
// when an id leaves the cache for any reason.
type Policy interface {
	// Name identifies the policy in metrics and logs.
	Name() string
	// OnPut records an insertion at iteration now.
	OnPut(id dataset.SampleID, now Iter)
	// OnGet records a hit at iteration now.
	OnGet(id dataset.SampleID, now Iter)
	// OnRemove records that id left the cache.
	OnRemove(id dataset.SampleID)
	// Victim proposes the next eviction candidate, given that we are
	// making room for `incoming` (or NoSample). ok=false means the policy
	// refuses to evict anything for this incoming sample — the insert is
	// rejected instead.
	Victim(now Iter, incoming dataset.SampleID) (dataset.SampleID, bool)
	// DrainExpired emits ids the policy wants evicted proactively
	// (independent of capacity pressure), e.g. Lobster's reuse-count and
	// reuse-distance rules. May emit nothing.
	DrainExpired(now Iter, emit func(dataset.SampleID))
}

// Cache is a byte-capacity cache of sample IDs. It stores no payloads —
// in the simulator only membership matters; the online runtime pairs it
// with a payload store. Not safe for concurrent use; the online runtime
// wraps it in a mutex.
type Cache struct {
	capacity int64
	used     int64
	// sizes is indexed by the dense sample id; 0 means "not cached"
	// (Put validates sizes are positive). A flat slice instead of a map
	// keeps the membership probe — executed several times per sample
	// access across Get/Contains/Put — allocation-free and branch-cheap.
	sizes  []int64
	count  int
	policy Policy

	// Statistics.
	hits      uint64
	misses    uint64
	evictions uint64
	rejected  uint64

	// scratch collects evicted ids; reused across calls so the hot path
	// (millions of Puts per simulated epoch) does not allocate. emit is
	// the pre-bound callback handed to Policy.DrainExpired for the same
	// reason.
	scratch []dataset.SampleID
	emit    func(dataset.SampleID)
}

// New creates a cache with the given byte capacity and policy.
func New(capacity int64, policy Policy) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d <= 0", capacity)
	}
	if policy == nil {
		return nil, fmt.Errorf("cache: nil policy")
	}
	c := &Cache{
		capacity: capacity,
		policy:   policy,
	}
	c.emit = func(id dataset.SampleID) {
		if !c.Contains(id) {
			return // already gone
		}
		c.removeLocked(id)
		c.evictions++
		c.scratch = append(c.scratch, id)
	}
	return c, nil
}

// Reserve sizes the per-sample tables of the cache and of its policy for
// ids in [0, numSamples), in one allocation each. It is for the caller
// that knows the dataset's length: left alone, the tables double their way
// up from empty as ids arrive, in every cache of every simulated campaign.
// It changes no behaviour; ids beyond numSamples still grow the tables.
func (c *Cache) Reserve(numSamples int) {
	c.sizes = grown(c.sizes, numSamples-1, 0)
	if p, ok := c.policy.(interface{ reserve(numSamples int) }); ok {
		p.reserve(numSamples)
	}
}

// Capacity returns the configured byte capacity.
func (c *Cache) Capacity() int64 { return c.capacity }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.used }

// Len returns the number of cached samples.
func (c *Cache) Len() int { return c.count }

// Contains reports membership without touching policy state or stats.
func (c *Cache) Contains(id dataset.SampleID) bool {
	return uint(id) < uint(len(c.sizes)) && c.sizes[id] != 0
}

// Get looks up id at iteration now, recording a hit or miss.
func (c *Cache) Get(id dataset.SampleID, now Iter) bool {
	if c.Contains(id) {
		c.hits++
		c.policy.OnGet(id, now)
		return true
	}
	c.misses++
	return false
}

// Put inserts id with the given size, evicting as needed. It returns the
// evicted ids (possibly empty) and whether the insert happened. Inserts
// are rejected when the sample is larger than the whole cache, when it is
// already present (no-op, reported as inserted), or when the policy
// refuses to evict for it.
//
// The returned slice is reused by the next Put or Maintain call: consume
// it before calling back into the cache.
func (c *Cache) Put(id dataset.SampleID, size int64, now Iter) (evicted []dataset.SampleID, ok bool) {
	if size <= 0 {
		panic(fmt.Sprintf("cache: Put sample %d with size %d", id, size))
	}
	if c.Contains(id) {
		return nil, true
	}
	if size > c.capacity {
		c.rejected++
		return nil, false
	}
	// Proactive (policy-initiated) evictions first: they may free enough.
	c.scratch = c.scratch[:0]
	c.drainExpired(now)
	for c.used+size > c.capacity {
		victim, vok := c.policy.Victim(now, id)
		if !vok {
			c.rejected++
			return c.scratch, false
		}
		c.removeLocked(victim)
		c.evictions++
		c.scratch = append(c.scratch, victim)
	}
	c.sizes = grown(c.sizes, int(id), 0)
	c.sizes[id] = size
	c.count++
	c.used += size
	c.policy.OnPut(id, now)
	return c.scratch, true
}

// Remove deletes id (e.g. invalidation), returning whether it was present.
// It does not count as an eviction.
func (c *Cache) Remove(id dataset.SampleID) bool {
	if !c.Contains(id) {
		return false
	}
	c.removeLocked(id)
	return true
}

// Maintain runs the policy's proactive eviction rules at iteration now and
// returns any evicted ids. Lobster calls this after every iteration; for
// baseline policies it is a no-op. The returned slice is reused by the
// next Put or Maintain call.
func (c *Cache) Maintain(now Iter) []dataset.SampleID {
	c.scratch = c.scratch[:0]
	c.drainExpired(now)
	return c.scratch
}

// Compact lets the policy shed bookkeeping for entries that have left
// the cache (the planned policies' lazily-deleted heap entries), bounding
// its memory by the cache's size instead of the run's length. It changes
// no membership, but it may reorder which of several equally-ranked
// samples is evicted first, so only the live runtime calls it (from its
// per-iteration maintenance): the simulator's outputs are pinned exactly
// and must not depend on when compaction ran.
func (c *Cache) Compact() {
	if p, ok := c.policy.(interface{ compact(live int) }); ok {
		p.compact(c.count)
	}
}

func (c *Cache) drainExpired(now Iter) {
	c.policy.DrainExpired(now, c.emit)
}

func (c *Cache) removeLocked(id dataset.SampleID) {
	if !c.Contains(id) {
		panic(fmt.Sprintf("cache: internal remove of absent sample %d", id))
	}
	c.used -= c.sizes[id]
	c.sizes[id] = 0
	c.count--
	c.policy.OnRemove(id)
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Rejected  uint64
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Rejected: c.rejected}
}

// HitRatio returns hits / (hits + misses), or 0 with no lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
