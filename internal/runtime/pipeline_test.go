package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/obs"
)

// hookBarrier installs fn as the barrier's last-arriver test hook for
// the duration of the test.
func hookBarrier(t *testing.T, fn func(rt *Runtime, completed int)) {
	t.Helper()
	barrierHook = fn
	t.Cleanup(func() { barrierHook = nil })
}

// TestRanksSubmitOneBatchAhead pins the pipeline's shape without a
// clock: whenever the last rank arrives at barrier `completed`, every
// rank has submitted exactly the batches 0..completed+1 — one ahead of
// the one it just trained on, never two — until the schedule runs out.
func TestRanksSubmitOneBatchAhead(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 2, 2)
	barriers := 0
	hookBarrier(t, func(rt *Runtime, completed int) {
		barriers++
		want := completed + 2
		if want > rt.totalIters {
			want = rt.totalIters
		}
		for rank, got := range rt.submitted {
			if got != want {
				t.Errorf("barrier %d: rank %d has submitted %d batches, want %d", completed, rank, got, want)
			}
		}
	})
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	if barriers != stats.Iterations || barriers == 0 {
		t.Fatalf("hook ran at %d barriers of %d iterations", barriers, stats.Iterations)
	}
}

// TestAllreduceIsTheIterationBarrier: the gradient average is the run's
// only rendezvous. With the default gradient and with zero-length ones
// (GradientSize -1) a 2x2 Lobster run delivers the same data, completes
// one allreduce round per iteration, and ends each iteration exactly
// once, in order.
func TestAllreduceIsTheIterationBarrier(t *testing.T) {
	var folds [2]uint64
	for i, size := range []int{0, -1} {
		opts := testOptions(t, loader.Lobster(), 2, 2)
		opts.GradientSize = size
		var ended []int
		hookBarrier(t, func(_ *Runtime, completed int) { ended = append(ended, completed) })
		stats, err := Run(opts)
		if err != nil {
			t.Fatalf("GradientSize %d: %v", size, err)
		}
		checkOracle(t, opts, stats)
		if stats.AllreduceRounds != uint64(stats.Iterations) || len(ended) != stats.Iterations {
			t.Fatalf("GradientSize %d: %d iterations, %d allreduce rounds, %d iteration ends",
				size, stats.Iterations, stats.AllreduceRounds, len(ended))
		}
		for h, completed := range ended {
			if completed != h {
				t.Fatalf("GradientSize %d: iteration end %d reported iteration %d", size, h, completed)
			}
		}
		folds[i] = stats.DataFold
	}
	if folds[0] != folds[1] {
		t.Fatalf("data fold %#x with the default gradient, %#x with none", folds[0], folds[1])
	}
}

// barrierClock is a fakeClock that tells the barrier's train wait from
// the reads' waits. It logs the train bookings (the delays of exactly
// step) and the node caches' expiry drains (drainSpy) in one sequence;
// a wait for one of the logged train deadlines is the train wait, and
// onTrainWait sees it, with the log since the previous one, before the
// wait moves the clock. The first train booking of every iteration ends
// late after the step, as though that rank had held its batch that much
// later, so the latest deadline is seldom the last one booked.
type barrierClock struct {
	*fakeClock
	step, late  time.Duration
	onTrainWait func(log []barrierEvent, t time.Time)

	mu     sync.Mutex
	log    []barrierEvent
	booked int // train bookings since the last train wait
}

// barrierEvent is a train booking (drain false: due is its deadline) or
// a node cache's expiry drain at iteration now.
type barrierEvent struct {
	drain bool
	due   time.Time
	now   cache.Iter
}

func (c *barrierClock) deadline(early, d time.Duration) time.Time {
	t := c.fakeClock.deadline(early, d)
	if d != c.step {
		return t
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.booked == 0 {
		t = t.Add(c.late)
	}
	c.booked++
	c.log = append(c.log, barrierEvent{due: t})
	return t
}

func (c *barrierClock) until(t time.Time) {
	c.mu.Lock()
	var log []barrierEvent
	for _, e := range c.log {
		if !e.drain && e.due.Equal(t) {
			log, c.log, c.booked = c.log, nil, 0
			break
		}
	}
	c.mu.Unlock()
	if log != nil {
		c.onTrainWait(log, t)
	}
	c.fakeClock.until(t)
}

func (c *barrierClock) logDrain(now cache.Iter) {
	c.mu.Lock()
	c.log = append(c.log, barrierEvent{drain: true, now: now})
	c.mu.Unlock()
}

// drainSpy is a node cache policy that logs every expiry drain, the
// policy's part of both a put and the barrier's maintain.
type drainSpy struct {
	cache.Policy
	clk *barrierClock
}

func (s drainSpy) DrainExpired(now cache.Iter, emit func(dataset.SampleID)) {
	s.clk.logDrain(now)
	s.Policy.DrainExpired(now, emit)
}

// TestBarrierWaitsOnceForLatestDeadline pins the barrier on the fake
// clock: every rank books one train step per iteration and nobody waits
// for it but the barrier, once, for the latest of the W deadlines, not
// the last one booked. Before that wait the barrier has maintained the
// node caches for the iteration (an expiry drain at it after the last
// booking: with no prefetch, nothing else drains at an iteration whose
// batches are all consumed) and applied the thread plan's entry for two
// iterations on; the nodes' iteration advances only after it, and the
// boundary comes no earlier than the latest deadline.
func TestBarrierWaitsOnceForLatestDeadline(t *testing.T) {
	opts := testOptions(t, loader.PyTorch(2, 8), 2, 2)
	world := opts.Topology.WorldSize()
	ipe := opts.Dataset.Len() / (world * opts.Model.BatchSize)
	total := opts.Epochs * ipe
	threadPlan := testPlanFile(opts.Topology.Nodes, opts.Topology.GPUsPerNode, total, ipe)
	for h := range threadPlan.Iterations {
		for n := range threadPlan.Iterations[h].Threads {
			threadPlan.Iterations[h].Threads[n].Preproc = 1 + (h+n)%3
		}
	}
	opts.ThreadPlan = threadPlan
	step := scaled(opts.Model.IterTime, opts.TimeScale)
	clk := &barrierClock{fakeClock: newFakeClock(), step: step, late: 10 * time.Millisecond}
	var rt *Runtime
	hookNode(t, func(node *nodeRuntime) {
		rt = node.rt
		policy := drainSpy{buildNodePolicy(rt.opts.Strategy, node.plan, node.node, rt.dir), clk}
		nc, err := newNodeCache(node.node, rt.ds.Len(), rt.opts.Topology.CacheBytes, policy, rt.dir)
		if err != nil {
			t.Fatal(err)
		}
		node.cache, rt.dm.caches[node.node] = nc, nc
	})

	var latest []time.Time // by iteration
	notLast := 0           // iterations whose latest deadline was not the last booked
	// The checks run on the barrier's goroutine, where a Fatal would
	// leave the other ranks parked: they report the first failure only.
	failed := false
	errorf := func(format string, args ...any) {
		if !failed {
			failed = true
			t.Errorf(format, args...)
		}
	}
	clk.onTrainWait = func(log []barrierEvent, due time.Time) {
		k := len(latest)
		var booked []time.Time
		maintained := false
		for _, e := range log {
			switch {
			case !e.drain:
				booked = append(booked, e.due)
			case len(booked) == world && e.now == cache.Iter(k):
				maintained = true
			}
		}
		max := due
		for _, b := range booked {
			if b.After(max) {
				max = b
			}
		}
		latest = append(latest, max)
		switch {
		case len(booked) != world:
			errorf("iteration %d: train wait after %d bookings of %v, want %d", k, len(booked), step, world)
			return
		case !due.Equal(max):
			errorf("iteration %d: train wait for %v, want the latest deadline %v", k, due, max)
			return
		case !maintained:
			errorf("iteration %d: no cache maintained between the last booking and the train wait", k)
			return
		}
		if !max.Equal(booked[world-1]) {
			notLast++
		}
		for _, node := range rt.nodes {
			if got := node.iterNow.Load(); got != int32(k) {
				errorf("iteration %d: node %d at iteration %d before the train wait", k, node.node, got)
			}
			if k+2 < total {
				if got, want := node.threads(), threadPlan.ThreadsAt(k + 2)[node.node]; got.Preproc != want.Preproc {
					errorf("iteration %d: node %d has %d preproc threads before the train wait, want the plan's %d for iteration %d",
						k, node.node, got.Preproc, want.Preproc, k+2)
				}
			}
		}
	}
	hookBarrier(t, func(r *Runtime, completed int) {
		if len(latest) != completed+1 {
			errorf("boundary %d after %d train waits", completed, len(latest))
			return
		}
		if now := clk.now(); now.Before(latest[completed]) {
			errorf("boundary %d at %v, before the latest deadline %v", completed, now, latest[completed])
		}
		for _, node := range r.nodes {
			if got := node.iterNow.Load(); got != int32(completed+1) {
				errorf("boundary %d: node %d at iteration %d, want %d", completed, node.node, got, completed+1)
			}
		}
	})
	stats, err := run(context.Background(), opts, clk)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	if failed {
		return
	}
	if len(latest) != stats.Iterations || stats.Iterations != total {
		t.Fatalf("%d train waits over %d iterations, want one each of %d", len(latest), stats.Iterations, total)
	}
	if notLast == 0 {
		t.Fatal("the latest deadline was the last one booked in every iteration: the test cannot tell the two apart")
	}
}

// TestCancelDrainsLookahead cancels the run at several iterations. A
// stopped rank has one batch in flight; it must wait it out, so that
// after RunContext returns no payload lease is outstanding on any node
// (DESIGN.md §12's lease balance), and the run reports exactly the
// iterations up to the published stop boundary.
func TestCancelDrainsLookahead(t *testing.T) {
	for _, cancelAt := range []int{1, 2, 7, 33} {
		opts := testOptions(t, loader.Lobster(), 2, 4)
		ctx, cancel := context.WithCancel(context.Background())
		var rt *Runtime
		hookBarrier(t, func(r *Runtime, _ int) { rt = r })
		lastBoundary := 0
		opts.OnProgress = func(p Progress) {
			lastBoundary = p.Iteration
			if p.Iteration == cancelAt {
				cancel()
			}
		}
		stats, err := RunContext(ctx, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d: err = %v, want context.Canceled", cancelAt, err)
		}
		if stats.Iterations != lastBoundary || stats.Iterations < cancelAt || stats.Iterations >= rt.totalIters {
			t.Fatalf("cancel at %d: %d iterations, last barrier published %d of %d",
				cancelAt, stats.Iterations, lastBoundary, rt.totalIters)
		}
		world := opts.Topology.WorldSize()
		if want := uint64(stats.Iterations * world * opts.Model.BatchSize); stats.SamplesLoaded != want || stats.SamplesVerified != want {
			t.Fatalf("cancel at %d: loaded %d, verified %d, want %d (the drained batch is not counted)",
				cancelAt, stats.SamplesLoaded, stats.SamplesVerified, want)
		}
		checkTeardown(t, fmt.Sprintf("cancel at %d", cancelAt), rt.nodes)
	}
}

// TestLedgerKeepsIterationsApart charges iteration h+1 before iteration
// h is flushed, as the loads of the batch in flight do: flush h must
// report only h's time and flush h+1 the rest.
func TestLedgerKeepsIterationsApart(t *testing.T) {
	ring := obs.NewTraceRing(64)
	ro := newRuntimeObs(nil, ring, 2, 1, 8, 0.01)
	const h = 5
	ro.ledger.add(obs.NewTraceCtx(1, 0, h), causePFS, 3000)
	ro.ledger.add(obs.NewTraceCtx(1, 0, h+1), causePFS, 500)
	ro.ledger.add(obs.NewTraceCtx(1, 0, h), causePFS, 4000)

	spans := func() map[int64]int64 { // iter -> pfs nanoseconds reported
		got := map[int64]int64{}
		for _, e := range ring.Events() {
			if e.Name == stallCauseNames[causePFS] && e.Arg2 == 1 {
				got[e.Arg1] += e.DurNs
			}
		}
		return got
	}
	ro.flushLedger(h, nil)
	if got := spans(); len(got) != 1 || got[h] != 7000 {
		t.Fatalf("flush %d reported %v, want only iteration %d with 7000ns", h, got, h)
	}
	ro.flushLedger(h+1, nil)
	if got := spans(); len(got) != 2 || got[h+1] != 500 {
		t.Fatalf("flush %d reported %v, want iteration %d with 500ns", h+1, got, h+1)
	}
}

// TestPrefetchLedgerFlush charges two nodes' prefetch rows as helpers do
// and flushes twice: each flush reports what accumulated since the last
// one, as one cat "prefetch" span per cause on the node's
// prefetch-ledger track and one histogram observation, and never under a
// rank's stall causes.
func TestPrefetchLedgerFlush(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(64)
	ro := newRuntimeObs(reg, ring, 2, 2, 8, 0.01)
	ro.prefetchRow(1).add(causePFS, 3000)
	ro.prefetchRow(1).add(causePFS, 4000)
	ro.prefetchRow(1).add(causeRecovery, 900)
	ro.prefetchRow(0).add(causePeerFetch, 500)
	ro.flushLedger(5, nil)
	ro.prefetchRow(1).add(causePFS, 100)
	ro.flushLedger(6, nil)

	type key struct {
		node, iter int64
		cause      string
	}
	got := map[key]int64{}
	for _, e := range ring.Events() {
		if e.Cat == "stall" {
			t.Errorf("prefetch charge surfaced as stall span %+v", e)
		}
		if e.Cat != "prefetch" {
			continue
		}
		if want := "node" + string(rune('0'+e.Arg2)) + "/prefetch-ledger"; ring.ThreadName(e.TID) != want {
			t.Errorf("span %+v is on track %q, want %q", e, ring.ThreadName(e.TID), want)
		}
		k := key{e.Arg2, e.Arg1, e.Name}
		if _, dup := got[k]; dup {
			t.Errorf("two %s spans for node %d iteration %d", e.Name, e.Arg2, e.Arg1)
		}
		got[k] = e.DurNs
	}
	want := map[key]int64{
		{1, 5, "pfs"}: 7000, {1, 5, "recovery"}: 900, {0, 5, "peer_fetch"}: 500, {1, 6, "pfs"}: 100,
	}
	if len(got) != len(want) {
		t.Fatalf("prefetch spans %v, want %v", got, want)
	}
	for k, ns := range want {
		if got[k] != ns {
			t.Errorf("span %+v lasts %dns, want %d", k, got[k], ns)
		}
	}
	if n := ro.prefetchHists[causePFS][1].Count(); n != 2 {
		t.Errorf("node 1 pfs histogram has %d observations, want one per flush", n)
	}
	if n := ro.prefetchHists[causePFS][0].Count(); n != 0 {
		t.Errorf("node 0 pfs histogram has %d observations, want none", n)
	}
	if ro.prefetchHists[causeLocalHit] != nil || ro.prefetchHists[causeQueueWait] != nil {
		t.Error("prefetch histograms registered for causes a helper cannot incur")
	}
}

// startClock is a fakeClock on which the reads of the run's first batch
// cost readCost each and every later read costs nothing, so the clock
// moves only by that batch, by the barrier's train waits and by what a
// test's hooks wait. It logs the train bookings (the delays of exactly
// step).
type startClock struct {
	*fakeClock
	step, readCost time.Duration
	costly         int // reads still to charge readCost

	mu     sync.Mutex
	booked []trainBooking
}

// trainBooking is one rank's booked compute: how late it was booked
// past its start, and its deadline.
type trainBooking struct {
	early time.Duration
	due   time.Time
}

func (c *startClock) deadline(early, d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d != c.step {
		d = 0
		if c.costly > 0 {
			c.costly--
			d = c.readCost
		}
		return c.fakeClock.deadline(early, d)
	}
	t := c.fakeClock.deadline(early, d)
	c.booked = append(c.booked, trainBooking{early, t})
	return t
}

// TestRankComputeStartsAtReleaseOrDone pins where a rank's compute
// starts, on the fake clock with one rank and one loading worker: at
// max(release, done), whenever the rank's goroutine books it.
//   - A batch that completes after the release starts at its done stamp:
//     batch 0's reads move the clock past the run's start.
//   - A rank held back after the release (by the test's hook, once it
//     holds its batch) books with early equal to its hold, and the
//     barrier waits for release + step.
//   - A rank whose own path outlasts the step still holds the release:
//     its deadline has passed when it arrives, and the next release is
//     its arrival.
//
// The iteration record dates the same start: Stall is start - release,
// and BatchTime runs to the next release, the train wait's end.
func TestRankComputeStartsAtReleaseOrDone(t *testing.T) {
	opts := testOptions(t, loader.PyTorch(1, 2), 1, 1)
	opts.Topology.GPUsPerNode = 1
	opts.Trace = obs.NewTraceRing(1 << 12)
	step := scaled(opts.Model.IterTime, opts.TimeScale)
	const readCost = time.Millisecond
	batch := opts.Model.BatchSize
	clk := &startClock{fakeClock: newFakeClock(), step: step, readCost: readCost, costly: batch}
	t0 := clk.now()
	holds := map[int]time.Duration{0: step / 3, 5: step / 2, 9: 4 * step}
	rankHook = func(_, h int) {
		if d := holds[h]; d > 0 {
			clk.fakeClock.until(clk.now().Add(d))
		}
	}
	t.Cleanup(func() { rankHook = nil })
	stats, err := run(context.Background(), opts, clk)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	if len(clk.booked) != stats.Iterations || len(stats.Trace) != stats.Iterations {
		t.Fatalf("%d train bookings, %d records over %d iterations", len(clk.booked), len(stats.Trace), stats.Iterations)
	}
	release := t0
	for h, b := range clk.booked {
		start := release
		if h == 0 {
			// Batch 0 is whole once its reads, back to back on the one
			// worker, have ended.
			start = t0.Add(time.Duration(batch) * readCost)
		}
		if b.early != holds[h] || !b.due.Equal(start.Add(step)) {
			t.Fatalf("iteration %d: booked early %v, due %v; want early %v (the hold), due %v (start + step)",
				h, b.early, b.due.Sub(t0), holds[h], start.Add(step).Sub(t0))
		}
		rec := stats.Trace[h].PerGPU[0]
		if want := start.Sub(release).Seconds(); rec.Stall != want || rec.Train != step.Seconds() {
			t.Fatalf("iteration %d: record stall %v, train %v; want %v, %v", h, rec.Stall, rec.Train, want, step.Seconds())
		}
		// The barrier waits for the deadline, or for a rank that
		// arrives after it.
		next := start.Add(max(step, holds[h]))
		if got := stats.Trace[h].BatchTime; got != next.Sub(release).Seconds() {
			t.Fatalf("iteration %d: released %vs after the last release, want %vs", h, got, next.Sub(release).Seconds())
		}
		release = next
	}
}
