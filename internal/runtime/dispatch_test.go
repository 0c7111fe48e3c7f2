package runtime

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/preproc"
)

// stage puts a pooled copy of id's payload into node's cache, as a
// staging read would.
func stage(t *testing.T, node *nodeRuntime, id dataset.SampleID) {
	t.Helper()
	buf := preproc.GetPayloadBuf(int(node.rt.ds.Size(id)))
	dataset.FillPayload(buf, node.rt.pfs.seed, id)
	if ok, retained := node.cache.put(id, buf, 0, false); !ok || !retained {
		t.Fatalf("staging sample %d: ok=%v retained=%v", id, ok, retained)
	}
}

// consume waits for comp's batch, checks every slot against ids and
// returns the batch fold, recycling the tensors.
func consume(t *testing.T, comp *preproc.Completion, ids []dataset.SampleID) uint64 {
	t.Helper()
	var fold uint64
	for i, r := range comp.Wait() {
		if err := checkBatchResult(r, ids[i]); err != nil {
			t.Errorf("slot %d: %v", i, err)
		}
		if r.Tensor != nil {
			fold ^= mix64(r.Tensor.Checksum)
		}
		preproc.PutTensor(r.Tensor)
	}
	return fold
}

// TestDispatchServesHitsAndQueuesMissRuns pins submitBatch on the fake
// clock with a batch of resident and absent samples whose absent slots
// form four runs, one of them longer than the chunk size. The hits are
// leased and counted at dispatch and go straight to the decode pool;
// only the absent slots reach the loading queue, one message per run of
// consecutive slots capped at the chunk, and pending counts exactly
// them. A sample staged between the dispatch and the loader's pickup is
// a hit at the loader's look, so every access is counted once: hits and
// misses add up to the batch. The batch decodes to the serial oracle's
// fold.
func TestDispatchServesHitsAndQueuesMissRuns(t *testing.T) {
	node, q := loaderFixture(t, newFakeClock())
	node.workAhead = false
	ids := make([]dataset.SampleID, fixtureBatch)
	for i := range ids {
		ids[i] = dataset.SampleID(5*i + 1)
	}
	// Absent slots: 1, 4-5 and 7-15, which the chunk of 8 (no worker
	// running yet: one) splits into 7-14 and 15.
	absent := func(i int) bool { return i == 1 || i == 4 || i == 5 || i >= 7 }
	wantRuns := [][2]int{{1, 2}, {4, 6}, {7, 15}, {15, 16}}
	misses := 0
	for i, id := range ids {
		if absent(i) {
			misses++
		} else {
			stage(t, node, id)
		}
	}
	comp := preproc.GetCompletion()
	defer comp.Release()
	comp.Reset(len(ids))
	q.submitBatch(ids, 0, 9, comp, 0, time.Time{})

	if got := q.pending.Load(); got != int64(misses) {
		t.Fatalf("pending %d after dispatch, want the %d absent slots", got, misses)
	}
	if st := node.cache.stats(); st.Hits != uint64(len(ids)-misses) || st.Misses != 0 {
		t.Fatalf("at dispatch: %d hits, %d misses; want %d hits and no miss counted yet", st.Hits, st.Misses, len(ids)-misses)
	}
	var queued []loadWork
	for len(q.reqs) > 0 {
		queued = append(queued, <-q.reqs)
	}
	if len(queued) != len(wantRuns) {
		t.Fatalf("%d queue messages, want one per run of absent slots %v", len(queued), wantRuns)
	}
	for k, w := range queued {
		lo, hi := wantRuns[k][0], wantRuns[k][1]
		if w.base != lo || len(w.ids) != hi-lo || &w.ids[0] != &ids[lo] {
			t.Fatalf("message %d covers slots %d..%d, want %d..%d", k, w.base, w.base+len(w.ids), lo, hi)
		}
	}

	// Staged after the dispatch, before a loader looks: a hit then.
	stage(t, node, ids[5])
	for _, w := range queued {
		q.reqs <- w
	}
	q.resize(1)
	if got, want := consume(t, comp, ids), oracleFold(t, node.rt.ds, ids); got != want {
		t.Errorf("batch fold %#x, oracle %#x", got, want)
	}
	close(q.reqs)
	q.crew.Wait()
	if got := q.pending.Load(); got != 0 {
		t.Errorf("pending %d once the batch is whole", got)
	}
	st := node.cache.stats()
	if st.Hits != uint64(len(ids)-misses+1) || st.Misses != uint64(misses-1) || st.Hits+st.Misses != uint64(len(ids)) {
		t.Errorf("%d hits and %d misses, want %d and %d: each of the %d accesses counted once",
			st.Hits, st.Misses, len(ids)-misses+1, misses-1, len(ids))
	}
	if got := node.pfsReads.Load(); got != uint64(misses-1) {
		t.Errorf("%d PFS reads, want one per miss: %d", got, misses-1)
	}
	checkTeardown(t, "dispatched batch", []*nodeRuntime{node})
}

// TestDispatchDoesNotAllocate: a batch of hits, dispatched, decoded and
// consumed, allocates nothing (the queue's scratch is sized to the batch
// at build). Skipped under the race detector, whose instrumentation
// allocates and makes sync.Pool drop puts.
func TestDispatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin skipped under -race")
	}
	node, q := loaderFixture(t, newFakeClock())
	ids := make([]dataset.SampleID, 8)
	for i := range ids {
		ids[i] = dataset.SampleID(3 * i)
		stage(t, node, ids[i])
	}
	comp := preproc.GetCompletion()
	defer comp.Release()
	round := func() {
		comp.Reset(len(ids))
		q.submitBatch(ids, 0, 9, comp, 0, time.Time{})
		for _, r := range comp.Wait() {
			preproc.PutTensor(r.Tensor)
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("dispatch round trip: %v allocs per run, want 0", n)
	}
	if len(q.reqs) != 0 || q.pending.Load() != 0 {
		t.Errorf("an all-hit batch queued %d messages, pending %d", len(q.reqs), q.pending.Load())
	}
	checkTeardown(t, "all-hit dispatches", []*nodeRuntime{node})
}

// blockingOwner is a payload owner whose release waits for release to
// close: a decode job leased from it holds its pool worker until then.
type blockingOwner struct{ release <-chan struct{} }

func (o blockingOwner) ReleasePayload(dataset.SampleID, []byte) { <-o.release }

// TestLeaseDispatchedHitsBalance stops a run while the hits its ranks
// leased at dispatch are still waiting to decode, once as it is and once
// with the node cache crashing in that window. The cache holds the whole
// dataset, so from epoch 1 on every access is a hit. At barrier stop-2
// the test cancels the run and parks every pool worker on a job of its
// own; the ranks then dispatch batch stop, whose hits queue behind those
// jobs. At barrier stop-1 every one of those hits still holds its lease
// (and the crash parks each leased buffer as a zombie); then the workers
// go free. The run stops at the published boundary, and teardown finds
// no lease and no zombie, with every buffer the crash evicted recycled
// exactly once.
func TestLeaseDispatchedHitsBalance(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "cancelled"
		if crash {
			name = "crashed and cancelled"
		}
		t.Run(name, func(t *testing.T) {
			opts := testOptions(t, loader.PyTorch(2, 8), 1, 3)
			opts.Topology.CacheBytes = 2 * opts.Dataset.TotalBytes()
			world, batch := opts.Topology.WorldSize(), opts.Model.BatchSize
			ipe := opts.Dataset.Len() / (world * batch)
			stop := ipe + 8 // inside epoch 1

			var (
				mu       sync.Mutex
				recycled map[*byte]int // from the crash on
			)
			hookNode(t, func(n *nodeRuntime) {
				n.cache.recycle = func(b []byte) {
					mu.Lock()
					if recycled != nil {
						recycled[base(b)]++
					}
					mu.Unlock()
					preproc.PutPayloadBuf(b)
				}
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			release := make(chan struct{})
			blocked := preproc.GetCompletion()
			defer blocked.Release()
			parked := false
			var (
				rt      *Runtime
				evicted []*byte
				zombies int
			)
			// The checks run on the barrier's goroutine, where a Fatal
			// would leave the ranks parked.
			hookBarrier(t, func(r *Runtime, completed int) {
				rt = r
				node := r.nodes[0]
				switch completed {
				case stop - 2:
					cancel()
					node.cache.mu.Lock()
					resident := node.cache.c.Len()
					node.cache.mu.Unlock()
					if resident != r.ds.Len() {
						t.Errorf("barrier %d: the cache holds %d of %d samples: later batches would miss", completed, resident, r.ds.Len())
						return
					}
					workers := node.pre.Workers()
					blocked.Reset(workers)
					for i := 0; i < workers; i++ {
						node.pre.SubmitBatch([]preproc.Job{{ID: 0, Payload: r.ds.Payload(0), Comp: blocked, Slot: i, Owner: blockingOwner{release}}})
					}
					parked = true
				case stop - 1:
					if !parked {
						return
					}
					defer close(release)
					if got := r.stopIter.Load(); got != int64(stop) {
						t.Errorf("stop boundary %d, want %d", got, stop)
					}
					nc := node.cache
					nc.mu.Lock()
					leases := 0
					for _, e := range nc.entries {
						leases += int(e.leases)
					}
					if crash {
						for _, e := range nc.entries {
							if e.b != nil {
								evicted = append(evicted, base(e.b))
							}
						}
					}
					nc.mu.Unlock()
					if leases != world*batch {
						t.Errorf("%d leases out while batch %d waits to decode, want its %d hits", leases, stop, world*batch)
					}
					if crash {
						mu.Lock()
						recycled = map[*byte]int{}
						mu.Unlock()
						nc.crash()
						zombies = len(nc.zombies)
					}
				}
			})
			stats, err := run(ctx, opts, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !parked {
				t.Fatal("the pool was never parked")
			}
			for _, r := range blocked.Wait() {
				preproc.PutTensor(r.Tensor)
			}
			if stats.Iterations != stop {
				t.Errorf("%d iterations, want the %d up to the stop", stats.Iterations, stop)
			}
			checkTeardown(t, name, rt.nodes)
			if !crash {
				return
			}
			if zombies != world*batch {
				t.Errorf("the crash parked %d zombies, want the %d leased hits", zombies, world*batch)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(recycled) != len(evicted) {
				t.Errorf("%d buffers recycled since the crash, want the %d it evicted", len(recycled), len(evicted))
			}
			for _, b := range evicted {
				if n := recycled[b]; n != 1 {
					t.Errorf("an evicted buffer was recycled %d times, want once", n)
					break
				}
			}
		})
	}
}

// TestDispatchChargesHits: while attribution records, the hits served at
// dispatch charge their lease pass to local_hit on the dispatching
// rank's ledger row, and the load histogram observes each hit's share of
// it, so the two sum to the same time; nothing is queued, so nothing is
// charged to queue_wait.
func TestDispatchChargesHits(t *testing.T) {
	node, q := loaderFixture(t, newFakeClock())
	reg := obs.NewRegistry()
	ro := newRuntimeObs(reg, nil, feedNodes*feedGPUs, feedNodes, node.rt.itersPerEpoch, 0.01)
	node.rt.ro = ro
	ro.instrumentNode(node)
	ids := make([]dataset.SampleID, 8)
	for i := range ids {
		ids[i] = dataset.SampleID(7 * i)
		stage(t, node, ids[i])
	}
	comp := preproc.GetCompletion()
	defer comp.Release()
	comp.Reset(len(ids))
	const rank, iter = 1, 0
	q.submitBatch(ids, iter, 9, comp, obs.NewTraceCtx(rank, 0, iter), time.Now())
	if got, want := consume(t, comp, ids), oracleFold(t, node.rt.ds, ids); got != want {
		t.Errorf("batch fold %#x, oracle %#x", got, want)
	}
	ro.flushLedger(iter, nil)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	scrape := sb.String()
	load := scrapeSum(t, scrape, "lobster_runtime_load_seconds_sum")
	hit := scrapeSum(t, scrape, `lobster_runtime_stall_local_hit_seconds_sum{rank="1"}`)
	if n := scrapeSum(t, scrape, "lobster_runtime_load_seconds_count"); n != float64(len(ids)) {
		t.Errorf("load histogram counts %v samples, want the %d hits", n, len(ids))
	}
	// Each observation is the pass's time divided by the hits, truncated
	// to the nanosecond.
	if hit <= 0 || math.Abs(hit-load) > float64(len(ids))*1e-9 {
		t.Errorf("local_hit %.9f s against %.9f s of load time", hit, load)
	}
	if qw := scrapeSum(t, scrape, "lobster_runtime_stall_queue_wait_seconds_sum"); qw != 0 {
		t.Errorf("an all-hit batch charged %v s of queue_wait", qw)
	}
	checkTeardown(t, "charged hits", []*nodeRuntime{node})
}
