// Package distcache coordinates the node-local caches of a node group into
// the distributed cache of Section 2: "each compute node exposes its local
// cache to other compute nodes, greatly reducing the need for the compute
// nodes as a group to interact with the repository."
//
// A Group tracks which nodes hold which samples, answers the three-way
// placement question of Equation 1 (local cache / remote cache / PFS), and
// provides the "last copy in the group" predicate that Lobster's
// reuse-count eviction rule needs.
package distcache

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/perfmodel"
	"repro/internal/tier"
)

// Group is the set of node-local caches participating in one training run.
// Not safe for concurrent use (the simulator is single-goroutine; the
// online runtime maintains its own synchronized directory).
type Group struct {
	nodes    []*cache.Cache
	replicas []int16 // per sample: number of caches holding it
}

// NewGroup wraps the per-node caches. numSamples bounds sample IDs; the
// caches' per-sample tables are sized for it here.
func NewGroup(nodes []*cache.Cache, numSamples int) (*Group, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("distcache: no nodes")
	}
	for i, c := range nodes {
		if c == nil {
			return nil, fmt.Errorf("distcache: nil cache for node %d", i)
		}
	}
	if numSamples <= 0 {
		return nil, fmt.Errorf("distcache: numSamples %d <= 0", numSamples)
	}
	for _, c := range nodes {
		c.Reserve(numSamples)
	}
	return &Group{nodes: nodes, replicas: make([]int16, numSamples)}, nil
}

// Locate reports where node would find the sample right now, without
// touching any cache state: its own cache (Local), some peer's cache
// (Remote), or the PFS.
func (g *Group) Locate(node int, id dataset.SampleID) tier.Kind {
	if g.nodes[node].Contains(id) {
		return tier.Local
	}
	if g.replicas[id] > 0 {
		return tier.Remote
	}
	return tier.PFS
}

// Get performs node's lookup of the sample at iteration now, recording the
// hit/miss on the node's own cache, and returns the tier the sample must be
// read from.
func (g *Group) Get(node int, id dataset.SampleID, now cache.Iter) tier.Kind {
	if g.nodes[node].Get(id, now) {
		return tier.Local
	}
	if g.replicas[id] > 0 {
		return tier.Remote
	}
	return tier.PFS
}

// GetBatch resolves one GPU mini-batch against the distributed cache and
// returns its tier placement: per sample it performs the same
// get-then-put sequence as the equivalent Get/Put loop — the
// interleaving matters, since each miss's insert can evict samples
// consulted later in the batch. The placement doubles as the batch's
// transfer accounting: RemoteOps counts remote-cache hits and PFSOps
// counts PFS fetches.
func (g *Group) GetBatch(node int, ids []dataset.SampleID, sizeOf func(dataset.SampleID) int64, now cache.Iter) perfmodel.BatchPlacement {
	var pl perfmodel.BatchPlacement
	for _, id := range ids {
		size := sizeOf(id)
		where := g.Get(node, id, now)
		pl.AddSample(where, size)
		if where != tier.Local {
			g.Put(node, id, size, now)
		}
	}
	return pl
}

// Put inserts the sample into node's cache (typically after fetching it
// from a slower tier), keeping replica counts consistent across evictions.
// It reports whether the insert was admitted.
func (g *Group) Put(node int, id dataset.SampleID, size int64, now cache.Iter) bool {
	already := g.nodes[node].Contains(id)
	evicted, ok := g.nodes[node].Put(id, size, now)
	for _, ev := range evicted {
		g.decReplica(ev)
	}
	if ok && !already {
		g.replicas[id]++
	}
	return ok
}

// Maintain runs proactive policy evictions on node's cache at iteration
// now, updating replica counts, and returns the number evicted.
func (g *Group) Maintain(node int, now cache.Iter) int {
	evicted := g.nodes[node].Maintain(now)
	for _, ev := range evicted {
		g.decReplica(ev)
	}
	return len(evicted)
}

func (g *Group) decReplica(id dataset.SampleID) {
	if g.replicas[id] <= 0 {
		panic(fmt.Sprintf("distcache: replica underflow for sample %d", id))
	}
	g.replicas[id]--
}

// IsLastCopy returns the predicate for node's Lobster eviction policy:
// true when node holds the only cached copy in the group. Evicting such a
// copy would force a future PFS re-fetch (Section 4.4's exception).
//
// Note the predicate is closed over the group, not a snapshot: policies
// must consult it at decision time, which they do.
func (g *Group) IsLastCopy(node int) func(dataset.SampleID) bool {
	return func(id dataset.SampleID) bool {
		return g.replicas[id] == 1 && g.nodes[node].Contains(id)
	}
}

// AggregateStats sums the cache counters across all nodes.
func (g *Group) AggregateStats() cache.Stats {
	var total cache.Stats
	for _, c := range g.nodes {
		s := c.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Evictions += s.Evictions
		total.Rejected += s.Rejected
	}
	return total
}

// CheckInvariants verifies replica counts against actual cache contents by
// full scan; used by tests and debug assertions.
func (g *Group) CheckInvariants() error {
	counts := make([]int16, len(g.replicas))
	for _, c := range g.nodes {
		for id := range g.replicas {
			if c.Contains(dataset.SampleID(id)) {
				counts[id]++
			}
		}
	}
	for id := range counts {
		if counts[id] != g.replicas[id] {
			return fmt.Errorf("distcache: sample %d replica count %d, actual %d",
				id, g.replicas[id], counts[id])
		}
	}
	return nil
}
