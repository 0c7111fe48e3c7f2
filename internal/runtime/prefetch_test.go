package runtime

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/preproc"
	"repro/internal/sampler"
	"repro/internal/tier"
)

// Feed fixture: 96 samples over 2 nodes x 2 GPUs x batch 4 is 6
// iterations per epoch; 3 epochs is 18 iterations.
const (
	feedNodes, feedGPUs, feedBatch = 2, 2, 4
	feedEpochs                     = 3
	feedTotalIters                 = 18
)

func feedDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "feed", NumSamples: 96, MeanSize: 4 << 10, SigmaLog: 0.3,
		MinSize: 1 << 10, Classes: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func feedSchedule(t testing.TB) *sampler.Schedule {
	t.Helper()
	sched, err := sampler.New(feedDataset(t), sampler.Config{WorldSize: feedNodes * feedGPUs, BatchSize: feedBatch, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.IterationsPerEpoch() * feedEpochs; got != feedTotalIters {
		t.Fatalf("fixture has %d iterations, want %d", got, feedTotalIters)
	}
	return sched
}

// residency is the fake cache the feed tests hand the feed.
type residency struct {
	mu  sync.Mutex
	ids map[dataset.SampleID]bool
}

func newResidency(ids ...dataset.SampleID) *residency {
	r := &residency{ids: make(map[dataset.SampleID]bool)}
	for _, id := range ids {
		r.ids[id] = true
	}
	return r
}

func (r *residency) contains(id dataset.SampleID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ids[id]
}

func (r *residency) add(id dataset.SampleID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ids[id] = true
}

// window is iteration iter's node batch in the order the feed must hand
// it out, written the long way round: sample k of every GPU before sample
// k+1 of any.
func window(sched *sampler.Schedule, node, iter int) []dataset.SampleID {
	ipe := sched.IterationsPerEpoch()
	var perGPU [][]dataset.SampleID
	for j := 0; j < feedGPUs; j++ {
		perGPU = append(perGPU, sched.Batch(nil, iter/ipe, iter%ipe, node*feedGPUs+j))
	}
	var out []dataset.SampleID
	for k := 0; k < feedBatch; k++ {
		for j := 0; j < feedGPUs; j++ {
			out = append(out, perGPU[j][k])
		}
	}
	return out
}

// wantClaims is the sequence a feed must hand out over windows first to
// last when nothing is settled: each window in interleaved order, less
// the resident ids and the ids already claimed.
func wantClaims(sched *sampler.Schedule, node, first, last int, res *residency) []prefetchClaim {
	claimed := map[dataset.SampleID]bool{}
	var want []prefetchClaim
	for iter := first; iter <= last; iter++ {
		for off, id := range window(sched, node, iter) {
			if res.ids[id] || claimed[id] {
				continue
			}
			claimed[id] = true
			want = append(want, prefetchClaim{id: id, iter: iter, off: off})
		}
	}
	return want
}

// claimsInFlight counts the ids f has claimed and not settled; the
// caller holds f.mu.
func claimsInFlight(f *prefetchFeed) int {
	n := 0
	for _, busy := range f.inflight {
		if busy {
			n++
		}
	}
	return n
}

// mustClaim claims the next id within the feed's depth, failing the test
// when the feed hands out nothing.
func mustClaim(t *testing.T, f *prefetchFeed, now int) prefetchClaim {
	t.Helper()
	c, ok := f.claim(now, f.depth)
	if !ok {
		t.Fatalf("feed handed out nothing at now=%d", now)
	}
	return c
}

// TestPrefetchFeedOrder drains a feed, never settling, and compares the
// sequence with the windows now+2 … the nearer of now+depth and the last
// iteration, each in interleaved order, less the resident ids and the
// ids already claimed. Each row takes held claims back to back before
// checking that every one of them is still in flight.
func TestPrefetchFeedOrder(t *testing.T) {
	sched := feedSchedule(t)
	w2, w9 := window(sched, 1, 2), window(sched, 1, 9)
	for _, tc := range []struct {
		name       string
		node       int
		now, depth int
		held       int
		resident   []dataset.SampleID
		first      int // first window claimed from
		last       int // last window claimed from
	}{
		{name: "start of the run", node: 0, now: 0, depth: 3, held: 1, first: 2, last: 3},
		{name: "second node", node: 1, now: 0, depth: 3, held: 1, first: 2, last: 3},
		{name: "resident ids are passed over", node: 1, now: 0, depth: 2, held: 1,
			resident: []dataset.SampleID{w2[0], w2[3], w2[7]}, first: 2, last: 2},
		{name: "depth 1 reaches no window", node: 0, now: 4, depth: 1, held: 1, first: 6, last: 5},
		{name: "across the epoch boundary", node: 1, now: 3, depth: 6, held: 1,
			resident: []dataset.SampleID{w9[1]}, first: 5, last: 9},
		{name: "bounded by the end of the run", node: 0, now: 14, depth: 64, held: 1, first: 16, last: 17},
		{name: "last iterations leave nothing", node: 0, now: 16, depth: 64, held: 1, first: 18, last: 17},
		{name: "a window's worth per claim", node: 1, now: 2, depth: 4, held: feedGPUs * feedBatch, first: 4, last: 6},
		{name: "three per claim", node: 0, now: 2, depth: 4, held: 3, first: 4, last: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := newResidency(tc.resident...)
			f := newPrefetchFeed(sched, tc.node, feedGPUs, feedTotalIters, tc.depth, res.contains)
			want := wantClaims(sched, tc.node, tc.first, tc.last, res)
			var got []prefetchClaim
			for drained := false; !drained; {
				var cs []prefetchClaim
				for len(cs) < tc.held {
					c, ok := f.claim(tc.now, f.depth)
					if !ok {
						drained = true
						break
					}
					cs = append(cs, c)
				}
				for _, c := range cs {
					if !f.inFlight(c.id) {
						t.Fatalf("claimed id %d is not in flight", c.id)
					}
				}
				got = append(got, cs...)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("claims\n got %v\nwant %v", got, want)
			}
			for _, c := range got {
				if c.iter < tc.now+2 || c.iter > tc.now+tc.depth || c.iter >= feedTotalIters {
					t.Fatalf("claim %+v outside [now+2, min(now+depth, last)] at now=%d depth=%d", c, tc.now, tc.depth)
				}
			}
		})
	}
}

// TestPrefetchFeedFollowsIteration advances now between claims: the
// cursor never hands out a window the demand pipeline has reached, and
// settled-and-staged ids are not handed out again.
func TestPrefetchFeedFollowsIteration(t *testing.T) {
	sched := feedSchedule(t)
	res := newResidency()
	f := newPrefetchFeed(sched, 0, feedGPUs, feedTotalIters, 4, res.contains)
	seen := map[dataset.SampleID]int{}
	for now := 0; now < feedTotalIters; now++ {
		// Three claims per iteration: less than a window, so the cursor
		// falls behind and must jump to now+2.
		for i := 0; i < 3; i++ {
			c, ok := f.claim(now, f.depth)
			if !ok {
				break
			}
			if c.iter < now+2 || c.iter > now+4 || c.iter >= feedTotalIters {
				t.Fatalf("now=%d: claim %+v outside the lookahead", now, c)
			}
			if want := window(sched, 0, c.iter)[c.off]; c.id != want {
				t.Fatalf("now=%d: claim %+v, window %d holds %d at that offset", now, c, c.iter, want)
			}
			if seen[c.id]++; seen[c.id] > 1 {
				t.Fatalf("now=%d: id %d handed out again after it was staged", now, c.id)
			}
			res.add(c.id)
			f.settle(c, true, now)
		}
	}
	if len(seen) == 0 {
		t.Fatal("feed never handed anything out")
	}
}

// TestPrefetchFeedConcurrentClaims has 8 goroutines claim and settle at
// once: no id may be in flight twice, and every non-resident id of every
// window in reach is claimed exactly once.
func TestPrefetchFeedConcurrentClaims(t *testing.T) {
	sched := feedSchedule(t)
	const now, depth = 1, 12
	pre := window(sched, 0, 4)[:3]
	res := newResidency(pre...)
	f := newPrefetchFeed(sched, 0, feedGPUs, feedTotalIters, depth, res.contains)
	want := map[dataset.SampleID]bool{}
	for iter := now + 2; iter <= now+depth; iter++ {
		for _, id := range window(sched, 0, iter) {
			want[id] = true
		}
	}
	for _, id := range pre {
		delete(want, id)
	}

	var mu sync.Mutex
	held := map[dataset.SampleID]bool{}
	claims := map[dataset.SampleID]int{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			hold := 1 + g%3 // mix single claims with a few held at once
			for drained := false; !drained; {
				var cs []prefetchClaim
				for len(cs) < hold {
					c, ok := f.claim(now, f.depth)
					if !ok {
						drained = true
						break
					}
					cs = append(cs, c)
				}
				mu.Lock()
				for _, c := range cs {
					if held[c.id] {
						t.Errorf("id %d is in flight twice", c.id)
					}
					held[c.id] = true
					claims[c.id]++
				}
				mu.Unlock()
				for _, c := range cs {
					mu.Lock()
					delete(held, c.id)
					mu.Unlock()
					res.add(c.id)
					f.settle(c, true, now)
				}
			}
		}()
	}
	wg.Wait()
	for id := range want {
		if claims[id] != 1 {
			t.Errorf("id %d claimed %d times, want once", id, claims[id])
		}
	}
	for id, n := range claims {
		if !want[id] {
			t.Errorf("id %d claimed %d times but is resident or out of reach", id, n)
		}
	}
	if c, ok := f.claim(now, f.depth); ok {
		t.Errorf("drained feed still hands out %+v", c)
	}
}

// TestPrefetchFeedRefusalRewindsAndPauses settles claims as refused: the
// feed hands nothing out until the iteration advances, and then resumes
// at the earliest refused claim.
func TestPrefetchFeedRefusalRewindsAndPauses(t *testing.T) {
	sched := feedSchedule(t)
	res := newResidency()
	f := newPrefetchFeed(sched, 0, feedGPUs, feedTotalIters, 8, res.contains)
	const now = 0
	// Stage all of window 2 and the first five of window 3, so the
	// refusals sit in a window still ahead of demand at now+1.
	var last prefetchClaim
	for i := 0; i < feedGPUs*feedBatch+5; i++ {
		last = mustClaim(t, f, now)
		res.add(last.id)
		f.settle(last, true, now)
	}
	if last.iter != 3 || last.off != 4 {
		t.Fatalf("setup ended at %+v, want window 3 offset 4", last)
	}
	a := mustClaim(t, f, now)
	b := mustClaim(t, f, now)
	c := mustClaim(t, f, now)
	if a.off != 5 || b.off != 6 || c.off != 7 {
		t.Fatalf("claims %+v %+v %+v, want window 3 offsets 5, 6, 7", a, b, c)
	}
	// The later claim is refused first, then an earlier one; the one in
	// between is staged.
	f.settle(c, false, now)
	if f.inFlight(c.id) {
		t.Fatal("refused claim is still in flight")
	}
	res.add(b.id)
	f.settle(b, true, now)
	f.settle(a, false, now)
	if got := f.pauseCount(); got != 1 {
		t.Fatalf("two refusals in one iteration counted %d pauses, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if got, ok := f.claim(now, f.depth); ok {
			t.Fatalf("paused feed handed out %+v", got)
		}
	}
	// Offset 6 was staged meanwhile, and 5 and 7 are all that is left of
	// window 3's eight ids.
	first, second := mustClaim(t, f, now+1), mustClaim(t, f, now+1)
	if first != a || second != c {
		t.Fatalf("first claims after the pause are %+v %+v, want the refused %+v then %+v", first, second, a, c)
	}
	if next := mustClaim(t, f, now+1); next.iter != 4 || next.off != 0 {
		t.Fatalf("claim after the refused ones is %+v, want the head of window 4", next)
	}
}

// TestPrefetchFeedRefusalBehindDemand refuses a claim in the window the
// demand pipeline reaches next: after the pause the feed moves on to
// now+2 instead of handing the demand path's window out.
func TestPrefetchFeedRefusalBehindDemand(t *testing.T) {
	sched := feedSchedule(t)
	f := newPrefetchFeed(sched, 0, feedGPUs, feedTotalIters, 8, newResidency().contains)
	c := mustClaim(t, f, 0)
	f.settle(c, false, 0)
	if next := mustClaim(t, f, 1); next.iter != 3 || next.off != 0 {
		t.Fatalf("claim after the pause is %+v, want the head of window 3", next)
	}
}

// TestPrefetchHelpersPerStrategy counts the read slots of each node's
// prefetch loop: the strategy's PrefetchThreads for the static and
// shared-pool baselines, prefetchSlots' Little's-law count for Lobster —
// 11 on the test shape, whose node misses about 10.7 samples of 1.0 ms
// per 1.0 ms iteration, whatever PrefetchThreads it names — and none
// (and no feed) for a demand-only strategy. Every feed reaches
// feedDepth's iterations: the test cache holds about ten iterations of a
// node's demand, so the deep strategies' 64 and DALI's 6 are both cut to
// 5.
func TestPrefetchHelpersPerStrategy(t *testing.T) {
	bare := loader.Lobster()
	bare.Name, bare.PrefetchThreads = "lobster-no-helpers-named", 0
	for _, tc := range []struct {
		spec loader.Spec
		want int
	}{
		{loader.NoPFS(2, 8), 5},
		{loader.DALI(8), 2},
		{loader.Lobster(), 11},
		{bare, 11},
		{loader.PyTorch(2, 8), 0},
	} {
		opts := testOptions(t, tc.spec, 2, 1)
		depth := feedDepth(tc.spec.PrefetchDepth, opts.Topology.CacheBytes, opts.Dataset.TotalBytes(), opts.Dataset.MeanSize(),
			opts.Topology.GPUsPerNode*opts.Model.BatchSize)
		if tc.want > 0 && depth >= tc.spec.PrefetchDepth {
			t.Fatalf("%s: the test cache does not cap the depth %d", tc.spec.Name, tc.spec.PrefetchDepth)
		}
		var rt *Runtime
		hookBarrier(t, func(r *Runtime, _ int) { rt = r })
		stats, err := Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec.Name, err)
		}
		checkOracle(t, opts, stats)
		for _, node := range rt.nodes {
			if len(node.slots) != tc.want {
				t.Errorf("%s: node %d prefetches through %d read slots, want %d", tc.spec.Name, node.node, len(node.slots), tc.want)
			}
			if (node.feed != nil) != (tc.want > 0) {
				t.Errorf("%s: node %d feed present = %v with %d read slots", tc.spec.Name, node.node, node.feed != nil, tc.want)
			} else if node.feed != nil && node.feed.depth != depth {
				t.Errorf("%s: node %d feed reaches %d iterations, want %d", tc.spec.Name, node.node, node.feed.depth, depth)
			}
		}
	}
}

// TestPrefetchFeedDepth tabulates feedDepth: the strategy's depth capped
// at half the iterations of a node's demand its cache holds, never below
// loaderReach. The first three rows are the benchmark's runtime
// topologies, written out: 4096 samples of 8 KiB, batch 8, a cache of a
// third of the dataset.
func TestPrefetchFeedDepth(t *testing.T) {
	const samples, mean = 4096, 8 << 10
	const total = int64(samples * mean)
	deep, dali := loader.Lobster().PrefetchDepth, loader.DALI(8).PrefetchDepth
	for _, tc := range []struct {
		name    string
		depth   int
		cache   int64
		samples int64
		perIter int // GPUs per node x batch
		want    int
	}{
		// 1365 samples / 8 per iteration = 170 iterations: 85 > 64.
		{"1x1 (rt-1r-sw)", deep, total / 3, samples, 1 * 8, deep},
		// 1365 / 32 = 42 iterations: half is 21.
		{"2x4 (rt-8r-sw)", deep, total / 3, samples, 4 * 8, 21},
		{"2x4 (rt-8r-io)", deep, total / 3, samples, 4 * 8, 21},
		{"cache of a few samples", deep, 3 * mean, samples, 4 * 8, loaderReach},
		// 96 / 32 = 3 iterations, but nothing is ever evicted.
		{"cache holds the dataset", deep, 96 * mean, 96, 4 * 8, deep},
		{"depth below half the horizon", dali, total / 3, samples, 4 * 8, dali},
		{"demand-only", loader.PyTorch(4, 8).PrefetchDepth, total / 3, samples, 4 * 8, 0},
	} {
		if got := feedDepth(tc.depth, tc.cache, tc.samples*mean, mean, tc.perIter); got != tc.want {
			t.Errorf("%s: feedDepth(%d, cache %d) = %d, want %d", tc.name, tc.depth, tc.cache, got, tc.want)
		}
	}
}

// TestPrefetchSlots tabulates prefetchSlots on the benchmark's runtime
// topologies, written out as in TestPrefetchFeedDepth: a PFS read of
// 4 ms op latency plus 8 KiB at 1500 MB/s, a 4 ms iteration. Lobster
// keeps one iteration of the node's misses in flight, never fewer than
// its PrefetchThreads; the baselines keep theirs, at least one.
func TestPrefetchSlots(t *testing.T) {
	const samples, mean = 4096, 8 << 10
	const total = int64(samples * mean)
	pfs := tier.ThetaGPULike().PFS
	lobster := loader.Lobster()
	bare := loader.NoPFS(4, 8)
	bare.PrefetchThreads = 0
	for _, tc := range []struct {
		name    string
		spec    loader.Spec
		cache   int64
		perIter int // GPUs per node x batch
		want    int
	}{
		// 32 x 2/3 misses x 4.005 ms / 4 ms = 21.4 reads in flight.
		{"2x4 (rt-8r-sw, rt-8r-io)", lobster, total / 3, 4 * 8, 22},
		// 8 x 2/3 x 4.005 / 4 = 5.3.
		{"1x1 (rt-1r-sw)", lobster, total / 3, 1 * 8, 6},
		// 32 x 1/3 x 4.005 / 4 = 10.7.
		{"cache of two thirds", lobster, 2 * total / 3, 4 * 8, 11},
		{"cache holds the dataset", lobster, total, 4 * 8, lobster.PrefetchThreads},
		{"dynamic with DALI's threads", loader.LobsterTh(), total / 3, 4 * 8, 22},
		{"NoPFS", loader.NoPFS(4, 8), total / 3, 4 * 8, 5},
		{"NoPFS naming no threads", bare, total / 3, 4 * 8, 1},
		{"DALI", loader.DALI(8), total / 3, 4 * 8, 2},
		{"LobsterEvict (DALI's shared pool)", loader.LobsterEvict(4, 8), total / 3, 4 * 8, 2},
		{"demand-only", loader.PyTorch(4, 8), total / 3, 4 * 8, 0},
	} {
		if got := prefetchSlots(tc.spec, pfs, 0.004, tc.cache, total, mean, tc.perIter); got != tc.want {
			t.Errorf("%s: prefetchSlots(%s, cache %d) = %d, want %d", tc.name, tc.spec.Name, tc.cache, got, tc.want)
		}
	}
	// A faster PFS needs fewer reads in flight, but never fewer than the
	// strategy's own PrefetchThreads.
	fast := pfs
	fast.OpLatency = 100e-6
	if got := prefetchSlots(lobster, fast, 0.004, total/3, total, mean, 4*8); got != lobster.PrefetchThreads {
		t.Errorf("prefetchSlots on a 100 us PFS = %d, want PrefetchThreads %d", got, lobster.PrefetchThreads)
	}
}

// TestPrefetchHelpersStageAhead runs two Lobster nodes end to end: the
// helpers stage samples, every sample still verifies, and nothing the
// feed handed out is left in flight when the run is over.
func TestPrefetchHelpersStageAhead(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 2, 3)
	var rt *Runtime
	hookBarrier(t, func(r *Runtime, _ int) { rt = r })
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Prefetched == 0 {
		t.Fatal("two Lobster nodes never prefetched")
	}
	checkOracle(t, opts, stats)
	if stats.PrefetchLate > stats.CacheMisses {
		t.Fatalf("%d late prefetches out of %d demand misses", stats.PrefetchLate, stats.CacheMisses)
	}
	if stats.StagedEvicted > stats.Prefetched {
		t.Fatalf("%d staged samples evicted unread out of %d staged", stats.StagedEvicted, stats.Prefetched)
	}
	checkTeardown(t, "complete run", rt.nodes)
}

// TestPrefetchFeedCountsLateDemandMiss builds a runtime without
// running it and takes the demand path's fetch for two ids: the one a
// helper has claimed counts as a late prefetch, the other does not. The
// strategy is demand-only, so nothing but the test claims from the feed,
// which the node is given before its loading workers start.
func TestPrefetchFeedCountsLateDemandMiss(t *testing.T) {
	hookNode(t, func(n *nodeRuntime) {
		n.feed = newPrefetchFeed(n.rt.sched, 0, n.rt.gpus, n.rt.totalIters, 4, n.cache.contains)
	})
	rt, cleanup, err := build(testOptions(t, loader.PyTorch(2, 8), 1, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	node := rt.nodes[0]
	claimed := mustClaim(t, node.feed, 0)
	other := window(rt.sched, 0, 3)[0]
	for i, id := range []dataset.SampleID{claimed.id, other, claimed.id} {
		payload, owned, owner, ok := node.fetch(id, 0, nil, true, nil)
		if !ok || payload == nil {
			t.Fatalf("demand fetch %d of sample %d: ok=%v payload=%v", i, id, ok, payload != nil)
		}
		if owner != nil {
			owner.ReleasePayload(id, payload)
		} else if owned {
			preproc.PutPayloadBuf(payload)
		}
		if i == 1 {
			node.feed.settle(claimed, true, 0)
		}
	}
	// First fetch: in flight, late. Second: never claimed. Third: settled.
	if got := node.prefetchLate.Load(); got != 1 {
		t.Fatalf("prefetchLate = %d, want 1", got)
	}
}
