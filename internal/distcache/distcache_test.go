package distcache

import (
	"testing"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/perfmodel"
	"repro/internal/sampler"
	"repro/internal/tier"
)

func newGroup(t *testing.T, nodes int, capacity int64) *Group {
	t.Helper()
	caches := make([]*cache.Cache, nodes)
	for i := range caches {
		c, err := cache.New(capacity, cache.NewLRU())
		if err != nil {
			t.Fatal(err)
		}
		caches[i] = c
	}
	g, err := NewGroup(caches, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// wipe empties node's cache the way a lost process would, keeping the
// replica counts in step.
func wipe(g *Group, node int) {
	for id := range g.replicas {
		if g.nodes[node].Remove(dataset.SampleID(id)) {
			g.decReplica(dataset.SampleID(id))
		}
	}
}

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(nil, 10); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := NewGroup([]*cache.Cache{nil}, 10); err == nil {
		t.Error("nil cache accepted")
	}
	c, _ := cache.New(10, cache.NewLRU())
	if _, err := NewGroup([]*cache.Cache{c}, 0); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestLocateThreeTiers(t *testing.T) {
	g := newGroup(t, 2, 100)
	if got := g.Locate(0, 1); got != tier.PFS {
		t.Fatalf("uncached sample located at %v, want pfs", got)
	}
	g.Put(1, 1, 10, 0)
	if got := g.Locate(0, 1); got != tier.Remote {
		t.Fatalf("peer-cached sample located at %v, want remote", got)
	}
	g.Put(0, 1, 10, 0)
	if got := g.Locate(0, 1); got != tier.Local {
		t.Fatalf("locally cached sample located at %v, want local", got)
	}
}

func TestGetRecordsStatsOnOwnNode(t *testing.T) {
	g := newGroup(t, 2, 100)
	g.Put(1, 1, 10, 0)
	if got := g.Get(0, 1, 1); got != tier.Remote {
		t.Fatalf("Get = %v, want remote", got)
	}
	// Node 0 counted a miss, node 1 must be untouched.
	if s := g.nodes[0].Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("node 0 stats = %+v", s)
	}
	if s := g.nodes[1].Stats(); s.Misses != 0 || s.Hits != 0 {
		t.Fatalf("node 1 stats = %+v (remote lookup must not count)", s)
	}
}

func TestReplicaCounting(t *testing.T) {
	g := newGroup(t, 3, 100)
	g.Put(0, 7, 10, 0)
	g.Put(1, 7, 10, 0)
	if got := g.replicas[7]; got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
	g.Put(2, 7, 10, 0)
	if got := g.replicas[7]; got != 3 {
		t.Fatalf("replicas = %d, want 3", got)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePutDoesNotDoubleCount(t *testing.T) {
	g := newGroup(t, 1, 100)
	g.Put(0, 3, 10, 0)
	g.Put(0, 3, 10, 1)
	if got := g.replicas[3]; got != 1 {
		t.Fatalf("replicas = %d after duplicate put, want 1", got)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictionUpdatesReplicas(t *testing.T) {
	g := newGroup(t, 2, 20)
	g.Put(0, 1, 10, 0)
	g.Put(0, 2, 10, 1)
	g.Put(0, 3, 10, 2) // evicts 1 (LRU)
	if got := g.replicas[1]; got != 0 {
		t.Fatalf("evicted sample still counted: %d", got)
	}
	if got := g.Locate(1, 1); got != tier.PFS {
		t.Fatalf("evicted sample located at %v, want pfs", got)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRejectedPutNotCounted(t *testing.T) {
	caches := []*cache.Cache{}
	c, _ := cache.New(20, cache.NewNeverEvict())
	caches = append(caches, c)
	g, _ := NewGroup(caches, 100)
	g.Put(0, 1, 10, 0)
	g.Put(0, 2, 10, 0)
	if ok := g.Put(0, 3, 10, 0); ok {
		t.Fatal("never-evict admitted over capacity")
	}
	if got := g.replicas[3]; got != 0 {
		t.Fatalf("rejected sample counted: %d", got)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIsLastCopy(t *testing.T) {
	g := newGroup(t, 2, 100)
	isLast0 := g.IsLastCopy(0)
	g.Put(0, 5, 10, 0)
	if !isLast0(5) {
		t.Fatal("sole copy on node 0 not reported as last")
	}
	g.Put(1, 5, 10, 0)
	if isLast0(5) {
		t.Fatal("replicated sample reported as last copy")
	}
	wipe(g, 0)
	if isLast0(5) {
		t.Fatal("sample not on node 0 reported as its last copy")
	}
}

func TestMaintainWithLobsterPolicyUpdatesReplicas(t *testing.T) {
	ds, err := dataset.Generate(dataset.Spec{
		Name: "g", NumSamples: 200, MeanSize: 10, Classes: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New(ds, sampler.Config{WorldSize: 2, BatchSize: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 2
	plans := make([]*access.Plan, 2)
	caches := make([]*cache.Cache, 2)
	var g *Group
	for n := 0; n < 2; n++ {
		p, err := access.Build(s, n, 1, epochs, 0)
		if err != nil {
			t.Fatal(err)
		}
		plans[n] = p
	}
	for n := 0; n < 2; n++ {
		n := n
		c, err := cache.New(ds.TotalBytes(), cache.NewLobster(plans[n], cache.LobsterOptions{
			IsLastCopy: func(id dataset.SampleID) bool { return g.IsLastCopy(n)(id) },
		}))
		if err != nil {
			t.Fatal(err)
		}
		caches[n] = c
	}
	g, err = NewGroup(caches, ds.Len())
	if err != nil {
		t.Fatal(err)
	}
	// Replay both nodes' streams; Maintain after each iteration.
	var batch []dataset.SampleID
	for epoch := 0; epoch < epochs; epoch++ {
		for it := 0; it < s.IterationsPerEpoch(); it++ {
			now := cache.Iter(epoch*s.IterationsPerEpoch() + it)
			for n := 0; n < 2; n++ {
				batch = s.NodeBatch(batch[:0], epoch, it, n, 1)
				for _, id := range batch {
					if g.Get(n, id, now) != tier.Local {
						g.Put(n, id, ds.Size(id), now)
					}
				}
				g.Maintain(n, now)
			}
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	agg := g.AggregateStats()
	if agg.Hits+agg.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}

// TestGetBatchMatchesLoop checks GetBatch is step-for-step equivalent to
// the per-sample Get/Put loop it replaces: same placement, same cache
// stats, same replica state — including when mid-batch inserts evict
// samples consulted later in the same batch (a tight 2-sample cache
// forces that interleaving to matter).
func TestGetBatchMatchesLoop(t *testing.T) {
	sizeOf := func(id dataset.SampleID) int64 { return 10 + int64(id%3) }
	batches := [][]dataset.SampleID{
		{1, 2, 3, 1, 2}, // reuse within the batch
		{4, 5, 6, 7, 4}, // evictions mid-batch (cap fits ~2)
		{1, 6, 2, 7, 3}, // mix of evicted and resident
	}
	run := func(batched bool) (*Group, []perfmodel.BatchPlacement) {
		g := newGroup(t, 2, 25)
		// Seed node 1 so node 0 sees remote hits.
		for _, id := range []dataset.SampleID{2, 5} {
			if !g.Put(1, id, sizeOf(id), 0) {
				t.Fatal("seed insert refused")
			}
		}
		var pls []perfmodel.BatchPlacement
		for h, ids := range batches {
			now := cache.Iter(h + 1)
			if batched {
				pls = append(pls, g.GetBatch(0, ids, sizeOf, now))
				continue
			}
			var pl perfmodel.BatchPlacement
			for _, id := range ids {
				size := sizeOf(id)
				switch g.Get(0, id, now) {
				case tier.Local:
					pl.LocalBytes += size
					pl.LocalOps++
				case tier.Remote:
					pl.RemoteBytes += size
					pl.RemoteOps++
					g.Put(0, id, size, now)
				default:
					pl.PFSBytes += size
					pl.PFSOps++
					g.Put(0, id, size, now)
				}
			}
			pls = append(pls, pl)
		}
		return g, pls
	}
	gLoop, plLoop := run(false)
	gBatch, plBatch := run(true)
	for i := range plLoop {
		if plLoop[i] != plBatch[i] {
			t.Errorf("batch %d: loop %+v != batched %+v", i, plLoop[i], plBatch[i])
		}
	}
	if plBatch[0].RemoteOps == 0 {
		t.Error("fixture never exercised the remote tier")
	}
	sLoop, sBatch := gLoop.AggregateStats(), gBatch.AggregateStats()
	if sLoop != sBatch {
		t.Errorf("stats diverge: loop %+v, batched %+v", sLoop, sBatch)
	}
	for id := 0; id < 10; id++ {
		if gLoop.replicas[dataset.SampleID(id)] != gBatch.replicas[dataset.SampleID(id)] {
			t.Errorf("replica count diverges for sample %d", id)
		}
	}
	if err := gBatch.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestGetBatchAfterPeerLoss: samples the group believed were remote must
// re-resolve to the PFS once the holding node's cache is emptied, and that
// node's own lookups keep working (its cache refills from scratch).
func TestGetBatchAfterPeerLoss(t *testing.T) {
	sizeOf := func(dataset.SampleID) int64 { return 10 }
	g := newGroup(t, 2, 1000)
	ids := []dataset.SampleID{1, 2, 3, 4}
	for _, id := range ids {
		if !g.Put(1, id, 10, 0) {
			t.Fatal("seed insert refused")
		}
	}

	pl := g.GetBatch(0, ids, sizeOf, 1)
	if pl.RemoteOps != len(ids) {
		t.Fatalf("before crash: %+v, want all remote", pl)
	}

	wipe(g, 1)
	// Node 0 cached the batch during the remote fetches above; wipe it
	// too so the placement question starts cold.
	wipe(g, 0)
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	pl = g.GetBatch(0, ids, sizeOf, 2)
	if pl.PFSOps != len(ids) || pl.RemoteOps != 0 {
		t.Fatalf("after crash: %+v, want all pfs", pl)
	}

	// The crashed node refills through its own lookups.
	pl = g.GetBatch(1, ids, sizeOf, 3)
	if pl.PFSOps != 0 {
		t.Fatalf("crashed node should see peer copies after refill: %+v", pl)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// usesLeft is a future-access oracle in which the listed samples have one
// use left, at the next iteration, and every other sample has none.
type usesLeft map[dataset.SampleID]bool

func (o usesLeft) Future(id dataset.SampleID, after cache.Iter) (cache.Iter, int) {
	if o[id] {
		return after + 1, 1
	}
	return cache.NoAccess, 0
}

func (usesLeft) IterationsPerEpoch() int { return 100 }

// TestLastCopyAtInsertIsInverted pins a known divergence (DESIGN.md §6):
// the Lobster policy asks IsLastCopy from inside cache.Put, before Put
// counts the new replica. For a sample inserted at its last use the
// predicate is inverted: node 0 expires the group's only copy of sample 1
// and keeps its second copy of sample 2. The rule of Section 4.4 ("keep
// iff no other node holds it") would do the opposite.
func TestLastCopyAtInsertIsInverted(t *testing.T) {
	var g *Group
	caches := make([]*cache.Cache, 2)
	for n, plan := range []usesLeft{{}, {2: true}} {
		n := n
		c, err := cache.New(1000, cache.NewLobster(plan, cache.LobsterOptions{
			IsLastCopy: func(id dataset.SampleID) bool { return g.IsLastCopy(n)(id) },
		}))
		if err != nil {
			t.Fatal(err)
		}
		caches[n] = c
	}
	g, err := NewGroup(caches, 4)
	if err != nil {
		t.Fatal(err)
	}
	g.Put(1, 2, 10, 0)
	g.Put(0, 1, 10, 0) // the group's only copy
	g.Put(0, 2, 10, 0) // node 1 holds another
	g.Maintain(0, 0)
	g.Maintain(1, 0)
	if got := g.Locate(0, 1); got != tier.PFS {
		t.Fatalf("sample 1 at %v; today node 0 expires the group's only copy", got)
	}
	if got := g.Locate(0, 2); got != tier.Local {
		t.Fatalf("sample 2 at %v; today node 0 keeps its second copy", got)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
