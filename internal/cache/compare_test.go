package cache

import (
	"testing"

	"repro/internal/access"
	"repro/internal/dataset"
	"repro/internal/sampler"
)

// replayHitRatio replays a node's full demand access stream against a
// cache and returns the hit ratio. Misses are inserted after the access
// (demand caching, no prefetch) — a policy-only comparison.
func replayHitRatio(t *testing.T, policy Policy, s *sampler.Schedule, plan *access.Plan, epochs int, capacity int64) float64 {
	t.Helper()
	c, err := New(capacity, policy)
	if err != nil {
		t.Fatal(err)
	}
	ds := s.Dataset()
	var batch []dataset.SampleID
	for epoch := 0; epoch < epochs; epoch++ {
		for it := 0; it < s.IterationsPerEpoch(); it++ {
			now := Iter(epoch*s.IterationsPerEpoch() + it)
			batch = s.NodeBatch(batch[:0], epoch, it, 0, 1)
			for _, id := range batch {
				if !c.Get(id, now) {
					c.Put(id, ds.Size(id), now)
				}
			}
			c.Maintain(now)
		}
	}
	return c.Stats().HitRatio()
}

func TestPolicyHitRatioOrdering(t *testing.T) {
	// One node, one GPU, cache holding ~30% of the dataset (the paper's
	// 40 GB / 135 GB ratio). Expected ordering on demand replay:
	// Belady >= Lobster >= LRU, and Belady >= FIFO.
	ds, err := dataset.Generate(dataset.Spec{
		Name: "cmp", NumSamples: 2000, MeanSize: 1000, SigmaLog: 0.3, Classes: 2, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New(ds, sampler.Config{WorldSize: 1, BatchSize: 20, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 6
	plan, err := access.Build(s, 0, 1, epochs, 0)
	if err != nil {
		t.Fatal(err)
	}
	capacity := ds.TotalBytes() * 30 / 100

	hr := map[string]float64{}
	hr["lru"] = replayHitRatio(t, NewLRU(), s, plan, epochs, capacity)
	hr["fifo"] = replayHitRatio(t, NewFIFO(), s, plan, epochs, capacity)
	hr["belady"] = replayHitRatio(t, NewBelady(plan), s, plan, epochs, capacity)
	hr["lobster"] = replayHitRatio(t, NewLobster(plan, LobsterOptions{}), s, plan, epochs, capacity)
	hr["nopfs"] = replayHitRatio(t, NewNoPFS(plan), s, plan, epochs, capacity)

	t.Logf("hit ratios: %v", hr)
	if hr["belady"] < hr["lru"] || hr["belady"] < hr["fifo"] || hr["belady"] < hr["nopfs"] {
		t.Errorf("Belady not the upper bound: %v", hr)
	}
	if hr["lobster"] < hr["lru"] {
		t.Errorf("Lobster below LRU on demand replay: %v", hr)
	}
	if hr["belady"]+1e-9 < hr["lobster"] {
		t.Errorf("Lobster above Belady, impossible: %v", hr)
	}
	// All policies must see identical access counts.
	if hr["lru"] <= 0 || hr["lru"] >= 1 {
		t.Errorf("degenerate LRU hit ratio %g", hr["lru"])
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	ds, _ := dataset.Generate(dataset.Spec{
		Name: "cap", NumSamples: 500, MeanSize: 1000, SigmaLog: 0.5, Classes: 2, Seed: 5,
	})
	s, _ := sampler.New(ds, sampler.Config{WorldSize: 1, BatchSize: 10, Seed: 5})
	plan, _ := access.Build(s, 0, 1, 3, 0)
	for _, mk := range []func() Policy{
		NewLRU, NewFIFO, NewNeverEvict,
		func() Policy { return NewBelady(plan) },
		func() Policy { return NewLobster(plan, LobsterOptions{}) },
		func() Policy { return NewNoPFS(plan) },
	} {
		p := mk()
		c, _ := New(ds.TotalBytes()/5, p)
		var batch []dataset.SampleID
		for epoch := 0; epoch < 3; epoch++ {
			for it := 0; it < s.IterationsPerEpoch(); it++ {
				now := Iter(epoch*s.IterationsPerEpoch() + it)
				batch = s.NodeBatch(batch[:0], epoch, it, 0, 1)
				for _, id := range batch {
					if !c.Get(id, now) {
						c.Put(id, ds.Size(id), now)
					}
					if c.Used() > c.Capacity() {
						t.Fatalf("%s: used %d > capacity %d", p.Name(), c.Used(), c.Capacity())
					}
					if c.Used() < 0 {
						t.Fatalf("%s: negative used %d", p.Name(), c.Used())
					}
				}
				c.Maintain(now)
			}
		}
	}
}

// TestCompactBoundsHeapAndKeepsVictims replays 100k accesses against a
// compacted and an uncompacted planned policy side by side. The compacted
// heap must stay within 2*live+1024 entries (the uncompacted one grows
// with the run), and both must evict samples of the same next use in the
// same order: compaction may only drop stale entries. One sample per
// iteration keeps next uses distinct, so the sequences are comparable at
// all (among equal keys compaction may legitimately pick another victim).
func TestCompactBoundsHeapAndKeepsVictims(t *testing.T) {
	const samples, epochs = 2000, 50
	ds, err := dataset.Generate(dataset.Spec{
		Name: "compact", NumSamples: samples, MeanSize: 1000, SigmaLog: 0.3, Classes: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New(ds, sampler.Config{WorldSize: 1, BatchSize: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := access.Build(s, 0, 1, epochs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() Policy{
		func() Policy { return NewBelady(plan) },
		func() Policy { return NewLobster(plan, LobsterOptions{}) },
	} {
		// replay returns the next use of every victim, in eviction order.
		replay := func(compactEvery int) (victimKeys []Iter, heapLen int) {
			p := mk().(*plannedPolicy)
			c, err := New(ds.TotalBytes()*30/100, p)
			if err != nil {
				t.Fatal(err)
			}
			var batch []dataset.SampleID
			for h := 0; h < epochs*s.IterationsPerEpoch(); h++ {
				now := Iter(h)
				batch = s.NodeBatch(batch[:0], h/s.IterationsPerEpoch(), h%s.IterationsPerEpoch(), 0, 1)
				for _, id := range batch {
					if c.Get(id, now) {
						continue
					}
					evicted, _ := c.Put(id, ds.Size(id), now)
					for _, ev := range evicted {
						victimKeys = append(victimKeys, plan.NextUse(ev, now))
					}
				}
				for _, ev := range c.Maintain(now) {
					victimKeys = append(victimKeys, plan.NextUse(ev, now))
				}
				if compactEvery > 0 && h%compactEvery == 0 {
					c.Compact()
					if bound := 2*c.Len() + 1024; len(p.h) > bound {
						t.Fatalf("%s: heap holds %d entries after Compact at access %d, bound %d", p.name, len(p.h), h, bound)
					}
				}
			}
			return victimKeys, len(p.h)
		}
		plainKeys, plainLen := replay(0)
		keys, _ := replay(64)
		if plainLen <= 4*samples {
			t.Fatalf("uncompacted heap ended at %d entries: the run is too short to need compaction", plainLen)
		}
		if len(keys) == 0 || len(keys) != len(plainKeys) {
			t.Fatalf("%d victims with compaction, %d without", len(keys), len(plainKeys))
		}
		for i := range keys {
			if keys[i] != plainKeys[i] {
				t.Fatalf("victim %d has next use %d with compaction, %d without", i, keys[i], plainKeys[i])
			}
		}
	}
}

// separateSearches answers Future the way the policies used to ask: next
// use and remaining uses as two independent queries of the plan, each
// with its own search.
type separateSearches struct{ *access.Plan }

func (o separateSearches) Future(id dataset.SampleID, after Iter) (Iter, int) {
	return o.NextUse(id, after), o.UsesRemaining(id, after)
}

// TestSingleSearchKeepsVictims replays 100k accesses against every
// oracle-driven policy over a full plan, once with the plan's one-search
// Future and once with separate NextUse and UsesRemaining queries. Both
// must evict the same samples in the same order, under capacity pressure
// (positive ids) and proactively (ids recorded as ^id).
func TestSingleSearchKeepsVictims(t *testing.T) {
	const samples, epochs = 2000, 50
	ds, err := dataset.Generate(dataset.Spec{
		Name: "single", NumSamples: samples, MeanSize: 1000, SigmaLog: 0.3, Classes: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New(ds, sampler.Config{WorldSize: 1, BatchSize: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	iters := s.IterationsPerEpoch()
	plan, err := access.Build(s, 0, 1, epochs, 0)
	if err != nil {
		t.Fatal(err)
	}
	policies := map[string]func(Oracle) Policy{
		"belady":  NewBelady,
		"lobster": func(o Oracle) Policy { return NewLobster(o, LobsterOptions{}) },
		"nopfs":   NewNoPFS,
	}
	for pname, mkPolicy := range policies {
		replay := func(separate bool) (out []dataset.SampleID) {
			var oracle Oracle = plan
			if separate {
				oracle = separateSearches{plan}
			}
			c, err := New(ds.TotalBytes()*30/100, mkPolicy(oracle))
			if err != nil {
				t.Fatal(err)
			}
			var batch []dataset.SampleID
			for h := 0; h < epochs*iters; h++ {
				now := Iter(h)
				batch = s.NodeBatch(batch[:0], h/iters, h%iters, 0, 1)
				for _, id := range batch {
					if c.Get(id, now) {
						continue
					}
					evicted, _ := c.Put(id, ds.Size(id), now)
					out = append(out, evicted...)
				}
				for _, ev := range c.Maintain(now) {
					out = append(out, ^ev)
				}
			}
			return out
		}
		got, want := replay(false), replay(true)
		if len(got) < samples || len(got) != len(want) {
			t.Fatalf("%s: %d evictions with one search, %d with separate searches", pname, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: eviction %d is sample %d with one search, %d with separate searches", pname, i, got[i], want[i])
			}
		}
	}
}

// TestReserveSizesTablesOnce: after Reserve(n) a pass over every id below n
// leaves each per-sample table where it was allocated, for every policy
// that keeps one, and ids at or beyond n still work.
func TestReserveSizesTablesOnce(t *testing.T) {
	const n = 3000
	o := &fakeOracle{iters: 10}
	for _, p := range []Policy{NewLRU(), NewFIFO(), NewPageCache(), NewBelady(o), NewLobster(o, LobsterOptions{}), NewNoPFS(o)} {
		c := mustCache(t, 1<<40, p)
		c.Reserve(n)
		tables := func() []any {
			switch p := p.(type) {
			case *lruPolicy:
				return []any{&c.sizes[0], &p.order.prev[0], &p.order.next[0]}
			case *pageCache:
				return []any{&c.sizes[0], &p.probation.prev[0], &p.protected.next[0]}
			case *plannedPolicy:
				return []any{&c.sizes[0], &p.vers[0], &p.expiredSet[0]}
			case *nopfsPolicy:
				return []any{&c.sizes[0], &p.expiredSet[0], &p.lru.order.prev[0]}
			}
			t.Fatalf("no table list for policy %s", p.Name())
			return nil
		}
		before := tables()
		if len(c.sizes) != n {
			t.Fatalf("%s: Reserve(%d) sized the cache's table to %d", p.Name(), n, len(c.sizes))
		}
		for id := dataset.SampleID(n - 1); id >= 0; id-- {
			c.Put(id, 1, 0)
			c.Get(id, 1)
		}
		for i, after := range tables() {
			if after != before[i] {
				t.Fatalf("%s: table %d was reallocated after Reserve", p.Name(), i)
			}
		}
		if _, ok := c.Put(n+5, 1, 2); !ok || !c.Contains(n+5) {
			t.Fatalf("%s: an id beyond the reserved range was not cached", p.Name())
		}
	}
}
