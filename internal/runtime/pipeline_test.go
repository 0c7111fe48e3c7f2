package runtime

import (
	"context"
	"errors"
	"fmt"
	"testing"

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
