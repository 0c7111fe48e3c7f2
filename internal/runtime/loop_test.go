package runtime

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/preproc"
	"repro/internal/tier"
)

// loopFixture is loaderFixture's node 0 with a prefetch loop's read
// slots and a peer: node 1's cache, registered with a distribution
// manager on clk, holds window 2 of node 0's walk, so the loop's first
// reads are peer copies. No goroutine runs; tests drive the loop.
func loopFixture(t *testing.T, clk clock, slots int) *nodeRuntime {
	t.Helper()
	node, _ := loaderFixture(t, clk)
	node.workAhead = false
	node.slots = make([]prefetchSlot, slots)
	rt := node.rt
	rt.dm = newDistributionManager(feedNodes, tier.ThetaGPULike().Remote, 0.05, clk)
	peer, err := newNodeCache(1, rt.ds.Len(), 1<<30, cache.NewLRU(), rt.dir)
	if err != nil {
		t.Fatal(err)
	}
	rt.dm.caches[0], rt.dm.caches[1] = node.cache, peer
	for _, id := range window(rt.sched, 0, 2) {
		buf := preproc.GetPayloadBuf(int(rt.ds.Size(id)))
		dataset.FillPayload(buf, 5, id)
		peer.put(id, buf, 0, false)
	}
	return node
}

// gridClock is a fakeClock whose booked deadlines round up to a grid, so
// reads booked close together come due together.
type gridClock struct {
	*fakeClock
	grid time.Duration
}

func (c *gridClock) deadline(d time.Duration) time.Time {
	return c.fakeClock.deadline(d).Add(c.grid - 1).Truncate(c.grid)
}

// TestPrefetchLoopWaitsOncePerDueSet drives a loop of three slots by hand
// until its feed runs dry: each round waits once, for the earliest
// deadline, and finishes every slot due by then in the same pass, so no
// slot is left due behind it; reads that come due together cost one
// wait between them, not one each.
func TestPrefetchLoopWaitsOncePerDueSet(t *testing.T) {
	clk := &gridClock{fakeClock: newFakeClock(), grid: time.Millisecond}
	node := loopFixture(t, clk, 3)
	waits := 0
	for node.bookFree() > 0 {
		node.waitFirst()
		if n := len(clk.takeWaits()); n != 1 {
			t.Fatalf("round %d: %d waits, want one", waits, n)
		}
		waits++
		due := 0
		for _, s := range node.slots {
			if s.busy && s.r.left(clk.now()) <= 0 {
				due++
			}
		}
		staged := node.prefetched.Load()
		node.finishDue()
		if got := int(node.prefetched.Load() - staged); due == 0 || got != due {
			t.Fatalf("round %d: %d slots due after the wait, %d staged", waits, due, got)
		}
		for i, s := range node.slots {
			if s.busy && s.r.left(clk.now()) <= 0 {
				t.Fatalf("round %d: slot %d left due after the pass", waits, i)
			}
		}
	}
	staged := int(node.prefetched.Load())
	if staged == 0 || waits*2 > staged {
		t.Fatalf("%d waits for %d staged reads, want one wait per due set", waits, staged)
	}
	if reads := int(node.pfsReads.Load()); reads+len(window(node.rt.sched, 0, 2)) != staged {
		t.Fatalf("%d staged from %d PFS reads and %d peer copies", staged, reads, len(window(node.rt.sched, 0, 2)))
	}
	checkTeardown(t, "drained loop", []*nodeRuntime{node})
}

// TestPrefetchLoopHandsBackOnStop runs the loop's goroutine on a clock
// that stops the run from inside the loop's first wait. The slot that is
// due then is staged; the others, peer copies not yet delivered, go back
// to the payload pool and their claims back to the feed.
func TestPrefetchLoopHandsBackOnStop(t *testing.T) {
	clk := &sleepHookClock{fakeClock: newFakeClock()}
	node := loopFixture(t, clk, 3)
	var recycled int
	node.cache.recycle = func(b []byte) {
		recycled++
		preproc.PutPayloadBuf(b)
	}
	var once sync.Once
	inWait := false
	clk.onSleep = func() { once.Do(func() { inWait = true; close(node.stopPref) }) }
	// A loop that never waits would never stop; stop it anyway, and fail.
	stop := time.AfterFunc(10*time.Second, func() { once.Do(func() { close(node.stopPref) }) })
	defer stop.Stop()
	node.prefWG.Add(1)
	go node.prefetchLoop()
	node.prefWG.Wait()
	if !inWait {
		t.Fatal("the loop never waited for its reads")
	}
	staged := int(node.prefetched.Load())
	if staged < 1 || staged+recycled != len(node.slots) {
		t.Fatalf("%d staged and %d peer copies handed back, want %d in all and at least one staged", staged, recycled, len(node.slots))
	}
	checkTeardown(t, "stopped loop", []*nodeRuntime{node})
}

// recordingClock is a fakeClock that calls onBook from every booking and
// remembers every deadline it handed out.
type recordingClock struct {
	*fakeClock
	onBook    func()
	mu        sync.Mutex
	deadlines map[int64]bool
}

func (c *recordingClock) deadline(d time.Duration) time.Time {
	if c.onBook != nil {
		c.onBook()
	}
	at := c.fakeClock.deadline(d)
	c.mu.Lock()
	c.deadlines[at.UnixNano()] = true
	c.mu.Unlock()
	return at
}

// TestPrefetchLoopBoundsReadsInFlight runs static strategies, whose idle
// loading workers stage nothing, so every claim on a node's feed is its
// prefetch loop's: a claim is held from before its read is booked until
// after it is staged. At every booking of the run no node holds more
// than PrefetchThreads claims, and some node holds that many.
func TestPrefetchLoopBoundsReadsInFlight(t *testing.T) {
	for _, spec := range []loader.Spec{loader.NoPFS(2, 8), loader.DALI(8)} {
		var mu sync.Mutex
		var nodes []*nodeRuntime
		hookNode(t, func(n *nodeRuntime) {
			mu.Lock()
			nodes = append(nodes, n)
			mu.Unlock()
		})
		most := 0
		clk := &recordingClock{fakeClock: newFakeClock(), deadlines: map[int64]bool{}}
		clk.onBook = func() {
			mu.Lock()
			defer mu.Unlock()
			for _, n := range nodes {
				n.feed.mu.Lock()
				most = max(most, claimsInFlight(n.feed))
				n.feed.mu.Unlock()
			}
		}
		opts := testOptions(t, spec, 2, 2)
		stats, err := run(context.Background(), opts, clk)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		checkOracle(t, opts, stats)
		if most != spec.PrefetchThreads {
			t.Errorf("%s: at most %d reads in flight on a node, want %d", spec.Name, most, spec.PrefetchThreads)
		}
		checkTeardown(t, spec.Name, nodes)
	}
}

// TestPrefetchLoopInsertsAfterDeadline runs Lobster on the fake clock —
// the prefetch loop and loading workers working ahead both stage — and
// checks every insert of a read into a node cache: its deadline is one
// the clock handed out, and the clock has reached it.
func TestPrefetchLoopInsertsAfterDeadline(t *testing.T) {
	clk := &recordingClock{fakeClock: newFakeClock(), deadlines: map[int64]bool{}}
	var mu sync.Mutex
	inserts, staged := 0, 0
	insertHook = func(n *nodeRuntime, id dataset.SampleID, due time.Time, demand bool) {
		now := clk.now()
		clk.mu.Lock()
		booked := clk.deadlines[due.UnixNano()]
		clk.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		inserts++
		if !demand {
			staged++
		}
		if !booked || now.Before(due) {
			t.Errorf("node %d: sample %d (demand %v) inserted at %v, deadline %v (booked: %v)", n.node, id, demand, now, due, booked)
		}
	}
	t.Cleanup(func() { insertHook = nil })
	opts := testOptions(t, loader.Lobster(), 2, 2)
	stats, err := run(context.Background(), opts, clk)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	if staged == 0 || inserts == staged {
		t.Fatalf("%d inserts, %d of them staged: want both kinds", inserts, staged)
	}
}
