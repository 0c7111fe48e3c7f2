package runtime

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/loader"
	"repro/internal/preproc"
	"repro/internal/tier"
)

// hookNode installs fn as the node test hook for the duration of the
// test: it sees every node before the node's first goroutine starts.
func hookNode(t *testing.T, fn func(*nodeRuntime)) {
	t.Helper()
	nodeHook = fn
	t.Cleanup(func() { nodeHook = nil })
}

// captureNodes collects the nodes of the runs the test makes.
func captureNodes(t *testing.T) *[]*nodeRuntime {
	t.Helper()
	nodes := new([]*nodeRuntime)
	hookNode(t, func(n *nodeRuntime) { *nodes = append(*nodes, n) })
	return nodes
}

// checkTeardown asserts the invariants of a run that has returned,
// complete, cancelled or stopped: no node's feed holds a claim in flight,
// no read slot of a prefetch loop is busy or holds a peer copy, and every
// decode lease on a node cache's buffers is back, so no evicted buffer is
// still parked waiting for one (DESIGN.md §12).
func checkTeardown(t *testing.T, step string, nodes []*nodeRuntime) {
	t.Helper()
	if len(nodes) == 0 {
		t.Fatalf("%s: no nodes captured", step)
	}
	for _, node := range nodes {
		if node.feed != nil {
			node.feed.mu.Lock()
			inflight := claimsInFlight(node.feed)
			node.feed.mu.Unlock()
			if inflight != 0 {
				t.Errorf("%s: node %d ends with %d claims in flight", step, node.node, inflight)
			}
		}
		for i, s := range node.slots {
			if s.busy || s.r.copy != nil {
				t.Errorf("%s: node %d ends with read slot %d busy=%v holding a peer copy=%v", step, node.node, i, s.busy, s.r.copy != nil)
			}
		}
		nc := node.cache
		nc.mu.Lock()
		leased := 0
		for _, e := range nc.entries {
			if e.leases != 0 {
				leased++
			}
		}
		zombies := len(nc.zombies)
		nc.mu.Unlock()
		if leased != 0 || zombies != 0 {
			t.Errorf("%s: node %d ends with %d leased entries and %d zombies", step, node.node, leased, zombies)
		}
	}
}

// TestPrefetchFeedLoaderReach mixes the two kinds of claim on one feed,
// never settling: a loader-side claim (reach loaderReach) is never handed
// a window beyond now+3, and helper and loader claims together still hand
// every non-resident id out exactly once, in TestPrefetchFeedOrder's
// order.
func TestPrefetchFeedLoaderReach(t *testing.T) {
	sched := feedSchedule(t)
	for _, tc := range []struct {
		name       string
		now, depth int
		last       int // last window the helpers reach
		loaderLast int // last window a loader is handed
	}{
		{name: "mid run", now: 1, depth: 6, last: 7, loaderLast: 4},
		{name: "depth below the loaders' reach", now: 1, depth: 2, last: 3, loaderLast: 3},
		{name: "end of the run", now: 14, depth: 6, last: 17, loaderLast: 17},
		{name: "last window", now: 15, depth: 6, last: 17, loaderLast: 17},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := newResidency(window(sched, 0, tc.now+2)[2], window(sched, 0, tc.now+3)[5])
			f := newPrefetchFeed(sched, 0, feedGPUs, feedTotalIters, tc.depth, res.contains)
			want := wantClaims(sched, 0, tc.now+2, tc.last, res)
			var got []prefetchClaim
			byLoader := 0
			// Two loader claims, then one helper claim, until both run dry.
			for turn := 0; ; turn++ {
				reach := loaderReach
				if turn%3 == 2 {
					reach = tc.depth
				}
				c, ok := f.claim(tc.now, reach)
				if !ok {
					if reach == tc.depth {
						break
					}
					continue
				}
				if reach == loaderReach {
					byLoader++
					if c.iter > tc.now+loaderReach || c.iter > tc.loaderLast {
						t.Fatalf("loader-side claim %+v beyond window %d at now=%d", c, tc.loaderLast, tc.now)
					}
				}
				got = append(got, c)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("claims\n got %v\nwant %v", got, want)
			}
			if byLoader == 0 {
				t.Fatal("no claim went to a loader")
			}
			if c, ok := f.claim(tc.now, loaderReach); ok {
				t.Fatalf("drained feed still hands a loader %+v", c)
			}
		})
	}
}

// sleepHookClock is a fakeClock that calls onSleep, on the sleeper's own
// goroutine, from inside every sleep and every wait for a booked
// deadline: the test's window into "a read is in progress right now".
type sleepHookClock struct {
	*fakeClock
	onSleep func()
}

func (c *sleepHookClock) sleep(d time.Duration) {
	c.fakeClock.sleep(d)
	c.onSleep()
}

func (c *sleepHookClock) until(t time.Time) {
	c.fakeClock.until(t)
	c.onSleep()
}

// loaderFixture is node 0 of the feed fixture with everything a loading
// worker touches — PFS store on clk, an ample cache, a preprocessing pool,
// a feed and the work-ahead switch on — and no goroutine of its own: no
// helper, no rank, no barrier. The iteration stays 0, so the loaders' two
// windows are 2 and 3. Tests start the workers they want on the returned
// queue, whose crew and request channel they drive directly.
func loaderFixture(t *testing.T, clk clock) (*nodeRuntime, *gpuQueue) {
	t.Helper()
	ds := feedDataset(t)
	sched := feedSchedule(t)
	dir, err := NewDirectory(ds.Len(), feedNodes)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := newNodeCache(0, ds.Len(), 1<<30, cache.NewLRU(), dir)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := preproc.NewPool(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pre.Close)
	rt := &Runtime{
		ds: ds, sched: sched, dir: dir, clk: clk,
		pfs:  newPFSStore(ds, 5, tier.ThetaGPULike().PFS, 0.05, clk),
		gpus: feedGPUs, itersPerEpoch: sched.IterationsPerEpoch(), totalIters: feedTotalIters,
	}
	node := &nodeRuntime{
		node: 0, rt: rt, cache: nc, pre: pre, stopPref: make(chan struct{}),
		feed:      newPrefetchFeed(sched, 0, feedGPUs, feedTotalIters, 8, nc.contains),
		workAhead: true,
	}
	q := &gpuQueue{reqs: make(chan loadWork, 4), node: node}
	q.crew = preproc.NewCrew("loader", q.worker)
	return node, q
}

// readState is what a sleepHookClock saw during one modeled delay: how
// many claims the feed had in flight and how many ids loaders had staged.
// With one worker and no helper, a delay with a claim in flight belongs to
// a staged read and one with none to a demand read.
type readState struct {
	inflight int
	staged   uint64
}

func observe(node *nodeRuntime) readState {
	node.feed.mu.Lock()
	defer node.feed.mu.Unlock()
	return readState{claimsInFlight(node.feed), node.stagedByLoaders.Load()}
}

// demandChunk is GPU 0's batch of iteration 0 as one queue message.
func demandChunk(node *nodeRuntime, comp *preproc.Completion) loadWork {
	ids := node.rt.sched.Batch(nil, 0, 0, 0)
	comp.Reset(len(ids))
	return loadWork{ids: ids, seed: 9, comp: comp}
}

// TestWorkAheadDemandFirst pins the order a loading worker takes its two
// kinds of work in, with one worker on a clock that returns at once.
func TestWorkAheadDemandFirst(t *testing.T) {
	// A chunk already queued when the worker looks: every read of the
	// chunk comes before the first claim, and then the worker stages
	// exactly its two windows.
	t.Run("queued chunk before any claim", func(t *testing.T) {
		const nearIDs = 2 * feedGPUs * feedBatch // windows 2 and 3
		var seen []readState
		clk := &sleepHookClock{fakeClock: newFakeClock()}
		node, q := loaderFixture(t, clk)
		clk.onSleep = func() { seen = append(seen, observe(node)) }
		comp := preproc.GetCompletion()
		defer comp.Release()
		w := demandChunk(node, comp)
		q.reqs <- w
		q.resize(1)
		for _, r := range comp.Wait() {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			preproc.PutTensor(r.Tensor)
		}
		// A closed queue holds nothing, so the worker goes on staging until
		// the feed hands it no more, and only then finds the queue closed.
		close(q.reqs)
		q.crew.Wait()

		demand := 0
		for i, s := range seen {
			if s.inflight == 0 {
				demand++
				if s.staged != 0 {
					t.Fatalf("delay %d is a demand read after %d ids were staged: %v", i, s.staged, seen)
				}
			}
		}
		// Each of the chunk's reads is one wait: op latency and bandwidth
		// slot together.
		if demand != len(w.ids) {
			t.Fatalf("%d demand-read delays, want %d: %v", demand, len(w.ids), seen)
		}
		for iter, resident := range map[int]bool{2: true, 3: true, 4: false} {
			for _, id := range window(node.rt.sched, 0, iter) {
				if node.cache.contains(id) != resident {
					t.Errorf("window %d id %d: resident = %v, want %v", iter, id, !resident, resident)
				}
			}
		}
		if got := node.stagedByLoaders.Load(); got != nearIDs || node.prefetched.Load() != nearIDs {
			t.Errorf("loader staged %d ids (prefetched %d), want windows 2 and 3: %d", got, node.prefetched.Load(), nearIDs)
		}
		checkTeardown(t, "queued chunk", []*nodeRuntime{node})
	})

	// A chunk that arrives while the worker is in a staged read: the worker
	// finishes that one read and takes the chunk.
	t.Run("chunk arriving mid-read waits for one read", func(t *testing.T) {
		var seen []readState
		clk := &sleepHookClock{fakeClock: newFakeClock()}
		node, q := loaderFixture(t, clk)
		comp := preproc.GetCompletion()
		defer comp.Release()
		w := demandChunk(node, comp)
		clk.onSleep = func() {
			seen = append(seen, observe(node))
			if len(seen) == 1 {
				q.reqs <- w
			}
		}
		q.resize(1)
		for _, r := range comp.Wait() {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			preproc.PutTensor(r.Tensor)
		}
		close(q.reqs)
		q.crew.Wait()

		if seen[0].inflight != 1 || seen[0].staged != 0 {
			t.Fatalf("the idle worker's first delay is %+v, want its first staged read", seen[0])
		}
		firstDemand := -1
		for i, s := range seen {
			if s.inflight == 0 {
				firstDemand = i
				break
			}
		}
		if firstDemand < 0 || seen[firstDemand].staged != 1 {
			t.Fatalf("first demand read at delay %d of %v, want it right after the one staged read", firstDemand, seen)
		}
		for i := firstDemand; i < firstDemand+len(w.ids); i++ {
			if seen[i].inflight != 0 || seen[i].staged != 1 {
				t.Fatalf("delay %d is %+v: the chunk's reads were interrupted by a claim: %v", i, seen[i], seen)
			}
		}
		checkTeardown(t, "mid-read chunk", []*nodeRuntime{node})
	})
}

// TestWorkAheadRetiresOnStopToken shrinks the crew to zero, which sends
// one stop token, while the worker is in a staged read: the worker
// finishes that read, settles its claim and retires.
func TestWorkAheadRetiresOnStopToken(t *testing.T) {
	clk := &sleepHookClock{fakeClock: newFakeClock()}
	node, q := loaderFixture(t, clk)
	delays := 0
	clk.onSleep = func() {
		if delays++; delays == 1 {
			q.crew.Resize(0)
		}
	}
	q.resize(1)
	q.crew.Wait() // nothing else ends the worker: reqs stays open
	if got := node.stagedByLoaders.Load(); got != 1 {
		t.Fatalf("worker staged %d ids after the stop token, want only the read in progress", got)
	}
	if delays != 1 {
		t.Fatalf("%d modeled delays, want the one read's single wait", delays)
	}
	checkTeardown(t, "stop token", []*nodeRuntime{node})
}

// TestWorkAheadStopsWithTheRun closes stopPref, as shutdown does before it
// closes the queues: from then on nothing is claimed, so a loading worker
// finds nothing to stage and goes back to waiting on its queue.
func TestWorkAheadStopsWithTheRun(t *testing.T) {
	node, _ := loaderFixture(t, newFakeClock())
	if !node.stageOne(loaderReach) || node.stagedByLoaders.Load() != 1 {
		t.Fatalf("running node staged %d ids, want 1", node.stagedByLoaders.Load())
	}
	close(node.stopPref)
	if node.stageOne(loaderReach) || node.stageOne(node.feed.depth) {
		t.Fatal("stageOne reports work after stopPref closed")
	}
	if got := node.prefetched.Load(); got != 1 {
		t.Fatalf("%d ids staged, want the 1 from before the stop", got)
	}
	checkTeardown(t, "stopped run", []*nodeRuntime{node})
}

// TestWorkAheadFollowsThreadMode is the simulator's rule
// (pipeline.(*sim).prefetch), asserted on the switch and on the count:
// loading workers stage ahead under dynamic thread management — with or
// without an offline thread plan — and under no static or shared-pool
// strategy, whose idle loaders stay idle.
func TestWorkAheadFollowsThreadMode(t *testing.T) {
	for _, tc := range []struct {
		spec loader.Spec
		plan bool
		want bool
	}{
		{spec: loader.PyTorch(2, 8)},
		{spec: loader.DALI(8)},
		{spec: loader.NoPFS(2, 8)},
		{spec: loader.LobsterEvict(2, 8)},
		{spec: loader.Lobster(), want: true},
		{spec: loader.LobsterTh(), want: true},
		{spec: loader.Lobster(), plan: true, want: true},
	} {
		name := tc.spec.Name
		if tc.plan {
			name += "+plan"
		}
		t.Run(name, func(t *testing.T) {
			opts := latencyBoundOptions(t, tc.spec)
			if tc.plan {
				opts.ThreadPlan = testPlanFile(2, 2, 4, 4)
			}
			nodes := captureNodes(t)
			stats, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, opts, stats)
			for _, node := range *nodes {
				if node.workAhead != tc.want {
					t.Errorf("node %d: work-ahead switch %v, want %v", node.node, node.workAhead, tc.want)
				}
			}
			if (stats.WorkAhead > 0) != tc.want {
				t.Errorf("loaders staged %d samples, want > 0: %v", stats.WorkAhead, tc.want)
			}
			if stats.WorkAhead > stats.Prefetched {
				t.Errorf("WorkAhead %d exceeds Prefetched %d, of which it is a part", stats.WorkAhead, stats.Prefetched)
			}
			checkTeardown(t, name, *nodes)
		})
	}
}

// latencyBoundOptions is the two-node test run with a PFS read at 1 ms —
// far above anything the CPU side costs, also under the race detector —
// so that what a run achieves is decided by how many reads it overlaps,
// not by how the scheduler interleaves goroutines.
func latencyBoundOptions(t *testing.T, spec loader.Spec) Options {
	opts := testOptions(t, spec, 2, 2)
	opts.TimeScale = 0.25
	return opts
}

// TestWorkAheadRaisesHitRatio runs Lobster twice on the latency-bound
// configuration, once as built and once with every node's work-ahead
// switch turned off before its loaders start: the idle loaders' staging is
// what lifts the hit ratio, and with the switch off nothing is attributed
// to them.
func TestWorkAheadRaisesHitRatio(t *testing.T) {
	opts := latencyBoundOptions(t, loader.Lobster())
	var last Progress
	opts.OnProgress = func(p Progress) { last = p }
	on, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, on)
	if last.WorkAhead == 0 || last.WorkAhead > on.WorkAhead || last.WorkAhead > last.Prefetched {
		t.Errorf("last Progress has WorkAhead %d of Prefetched %d, Stats.WorkAhead %d", last.WorkAhead, last.Prefetched, on.WorkAhead)
	}
	hookNode(t, func(n *nodeRuntime) { n.workAhead = false })
	off, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if off.WorkAhead != 0 {
		t.Fatalf("switch off, yet loaders staged %d samples", off.WorkAhead)
	}
	if on.WorkAhead == 0 {
		t.Fatal("switch on, yet loaders staged nothing")
	}
	checkOracle(t, opts, off)
	t.Logf("hit ratio %.3f with work-ahead (%d of %d staged by loaders), %.3f without", on.HitRatio(), on.WorkAhead, on.Prefetched, off.HitRatio())
	if on.HitRatio() <= off.HitRatio() {
		t.Fatalf("hit ratio %.3f with work-ahead, %.3f without: want higher", on.HitRatio(), off.HitRatio())
	}
}
