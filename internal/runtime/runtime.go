package runtime

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/access"
	"repro/internal/allreduce"
	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/datafile"
	"repro/internal/dataset"
	"repro/internal/kvstore"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/preproc"
	"repro/internal/sampler"
	"repro/internal/threadmgr"
)

// Options configure an online training run.
type Options struct {
	Topology cluster.Topology
	Dataset  *dataset.Dataset
	Model    cluster.DNNModel
	Epochs   int
	Seed     uint64
	Strategy loader.Spec
	// TimeScale multiplies all modeled durations (storage latencies,
	// training compute). 0.01 runs 100x faster than modeled time —
	// examples finish in tens of milliseconds while still exercising real
	// contention. Default 0.01.
	TimeScale float64
	// PrefetchWorkers bounds the background prefetching concurrency
	// (default 2 for strategies with PrefetchDepth > 0).
	PrefetchWorkers int
	// Verify enables end-to-end payload verification of every decoded
	// tensor (default true).
	Verify *bool
	// PerSample forces the legacy one-channel-send-per-sample data path
	// (one queue submit and one chan receive per sample) instead of the
	// batched one. Kept as a differential baseline: both paths must
	// produce identical Stats.DataFold and SamplesVerified for the same
	// options, and the runtime benchmark reports both.
	PerSample bool
	// ThreadPlan, when non-nil, switches thread management into
	// plan-following mode: each iteration's pool sizes come from the
	// pre-computed offline plan (Section 4.5) instead of the live
	// controller. The plan's topology must match.
	ThreadPlan *plan.Plan
	// DataFilePath, when set, backs the PFS store with a packed on-disk
	// dataset file (written by cmd/lobster-pack or datafile.Write): every
	// PFS read becomes a real positional file read, checksum-verified.
	DataFilePath string
	// PFSFailureRate injects transient PFS read failures with the given
	// per-read probability (failure-injection testing; loaders retry with
	// backoff). Default 0.
	PFSFailureRate float64
	// DecideEvery is how often (iterations) the dynamic thread controller
	// re-runs (Section 4.1's overhead/adaptivity trade-off; default 1).
	DecideEvery int
	// GradientSize is the per-iteration pseudo-gradient length each GPU
	// contributes to the ring allreduce that implements the data-parallel
	// barrier (default 64; -1 disables the collective and leaves only
	// the synchronization barrier). All ranks must obtain bit-identical
	// averaged gradients; the run fails verification otherwise.
	GradientSize int
	// OnProgress, when non-nil, receives a Progress snapshot at the end
	// of every iteration (from the barrier's last arriver). Keep the
	// callback cheap; it runs on the training critical path.
	OnProgress func(Progress)
	// Obs, when non-nil, is the instrument registry the run records into:
	// per-stage latency histograms (stall/load/preproc), per-GPU queue
	// depths, cache/PFS counters — everything a monitor.Server serves at
	// /metrics. When the run uses a KVCache, its shard clients are
	// instrumented into the same registry.
	Obs *obs.Registry
	// Trace, when non-nil, receives per-stage spans (stall/train per
	// rank, load per loading worker, preproc per pool worker, prefetch
	// windows, thread-resize instants) for /trace.json dumps.
	Trace *obs.TraceRing
	// Chaos, when non-nil, drives deterministic fault injection: the
	// barrier's last arriver ticks the controller at every iteration
	// boundary, and the runtime registers default injectors for the fault
	// kinds it owns (PFS brownouts, straggler peers, cache-node crashes,
	// slow decode workers) — see internal/chaos and DESIGN.md §13. Kinds
	// the runtime has no handle on (kv shard crash, connection drops) are
	// the harness's to Register before the run.
	Chaos *chaos.Controller
	// KVCache, when non-nil, replaces the node-to-node distribution
	// manager with a shared KV-store cluster as the middle cache tier
	// (the "alternatives to distributed caching like for example
	// KV-stores" of Section 2). Demand misses go local cache -> KV
	// cluster -> PFS, with PFS fetches written back to the cluster; the
	// background prefetcher fetches each plan window through one batched
	// MultiGet round trip per shard and writes PFS fallbacks back with a
	// single MultiPut.
	KVCache *kvstore.Cluster
}

// Progress is a live mid-run snapshot published through
// Options.OnProgress (and typically forwarded to a monitor.Server).
type Progress struct {
	Iteration  int    `json:"iteration"`
	TotalIters int    `json:"total_iterations"`
	Epoch      int    `json:"epoch"`
	CacheHits  uint64 `json:"cache_hits"`
	CacheMiss  uint64 `json:"cache_misses"`
	RemoteHits uint64 `json:"remote_hits"`
	PFSReads   uint64 `json:"pfs_reads"`
	Prefetched uint64 `json:"prefetched"`
	// Failovers and PartialFanouts mirror the Stats fields of the same
	// names mid-run, so health endpoints can surface recovery-layer
	// pressure while the run is still going.
	Failovers      uint64  `json:"failovers"`
	PartialFanouts uint64  `json:"partial_fanouts"`
	HitRatio       float64 `json:"hit_ratio"`
	ElapsedSec     float64 `json:"elapsed_sec"`
}

// HealthSignals implements monitor.HealthSignaler (structurally; the
// runtime does not import the monitor): a /healthz probe on a monitor
// fed with Progress snapshots shows recovery-layer pressure inline.
func (p Progress) HealthSignals() map[string]uint64 {
	return map[string]uint64{
		"failovers":       p.Failovers,
		"partial_fanouts": p.PartialFanouts,
	}
}

// Stats summarize an online run.
type Stats struct {
	WallTime        time.Duration
	Iterations      int
	SamplesLoaded   uint64
	SamplesVerified uint64
	CacheHits       uint64
	CacheMisses     uint64
	RemoteHits      uint64
	PFSReads        uint64
	PFSRetries      uint64
	Prefetched      uint64
	AllreduceRounds uint64
	// Failovers counts shared-tier reads that fell over to the PFS
	// (promised peer copy not delivered, KV shard unreachable, or a whole
	// prefetch window degraded by a full MultiGet failure) — the recovery
	// layer's "how often did the middle tier let us down" number.
	Failovers uint64
	// PartialFanouts counts KV MultiGet fan-outs that came back partial
	// (kvstore.PartialError: some shards failed, the rest delivered).
	PartialFanouts uint64
	// DataFold is a deterministic fold of every decoded tensor checksum:
	// a rank-major chain of per-iteration folds, where each iteration's
	// fold is order-independent (results may finish in any order within
	// a batch). Identical across the batched and per-sample paths and
	// across runs with the same options — the differential tests pin it.
	DataFold uint64
	// FinalPreprocThreads/FinalLoadThreads record the last thread
	// decision per node (diagnostics for the thread-tuning example).
	FinalPreprocThreads []int
	FinalLoadThreads    [][]int
}

// HitRatio returns local cache hits over lookups.
func (s *Stats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Runtime is one online training run's shared state.
type Runtime struct {
	opts  Options
	ds    *dataset.Dataset
	sched *sampler.Schedule
	dir   *Directory
	dm    *DistributionManager
	pfs   *PFSStore
	kv    *kvstore.Cluster
	nodes []*nodeRuntime
	mgrs  []*threadmgr.Manager
	ro    *runtimeObs // nil when the run is un-instrumented

	gpus          int
	itersPerEpoch int
	totalIters    int
	tick          chan struct{}
	runDone       chan struct{}

	// submitted counts the batches each rank has handed to its queue on
	// the batched path. Each rank writes only its own element; the
	// barrier's last arriver may read them all (every other rank is parked
	// in the barrier, whose mutex orders the accesses).
	submitted []int

	// decideThreads scratch, reused across iterations (only the barrier's
	// last-arriving rank runs decisions, one iteration at a time, so no
	// synchronization is needed).
	decideDemands []threadmgr.GPUDemand
	decideBatch   []dataset.SampleID
	decideLocal   []bool
	decideRemote  []bool
}

// barrier is the data-parallel allreduce stand-in: all GPUs arrive, the
// last one runs the per-iteration action (cache maintenance, thread
// decisions), then everyone proceeds.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	arrived int
	gen     int
	onLast  func(completedIter int)
}

func newBarrier(size int, onLast func(int)) *barrier {
	b := &barrier{size: size, onLast: onLast}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived++
	if b.arrived == b.size {
		if b.onLast != nil {
			b.onLast(b.gen)
		}
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	gen := b.gen
	for gen == b.gen {
		b.cond.Wait()
	}
}

// Run executes the online training and returns its statistics.
func Run(opts Options) (*Stats, error) {
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: when ctx is cancelled, every GPU
// stops at its next iteration boundary, the runtime shuts down cleanly
// (queues drained, pools closed, remote servers stopped), and the partial
// statistics are returned alongside ctx.Err().
func RunContext(ctx context.Context, opts Options) (*Stats, error) {
	if opts.Dataset == nil {
		return nil, fmt.Errorf("runtime: nil dataset")
	}
	if err := opts.Topology.Validate(); err != nil {
		return nil, err
	}
	if opts.Epochs < 1 {
		return nil, fmt.Errorf("runtime: epochs %d < 1", opts.Epochs)
	}
	if err := opts.Strategy.Validate(opts.Topology.GPUsPerNode, opts.Topology.CPUThreads); err != nil {
		return nil, err
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 0.01
	}
	if opts.PrefetchWorkers <= 0 {
		opts.PrefetchWorkers = 2
	}
	if opts.GradientSize == 0 {
		opts.GradientSize = 64
	}
	if opts.DecideEvery < 1 {
		opts.DecideEvery = 1
	}
	verify := true
	if opts.Verify != nil {
		verify = *opts.Verify
	}
	if opts.ThreadPlan != nil {
		if err := opts.ThreadPlan.Validate(); err != nil {
			return nil, err
		}
		if opts.ThreadPlan.Nodes != opts.Topology.Nodes ||
			opts.ThreadPlan.GPUsPerNode != opts.Topology.GPUsPerNode {
			return nil, fmt.Errorf("runtime: plan topology %dx%d does not match run topology %dx%d",
				opts.ThreadPlan.Nodes, opts.ThreadPlan.GPUsPerNode,
				opts.Topology.Nodes, opts.Topology.GPUsPerNode)
		}
	}

	top := opts.Topology
	sched, err := sampler.New(opts.Dataset, sampler.Config{
		WorldSize: top.WorldSize(),
		BatchSize: opts.Model.BatchSize,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	dir, err := NewDirectory(opts.Dataset.Len(), top.Nodes)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{
		opts:          opts,
		kv:            opts.KVCache,
		ds:            opts.Dataset,
		sched:         sched,
		dir:           dir,
		dm:            NewDistributionManager(top.Nodes, top.Hierarchy.Remote, opts.TimeScale),
		pfs:           newPFSStoreWithFailures(opts),
		gpus:          top.GPUsPerNode,
		itersPerEpoch: sched.IterationsPerEpoch(),
		tick:          make(chan struct{}, 4*top.Nodes*opts.PrefetchWorkers),
		runDone:       make(chan struct{}),
		submitted:     make([]int, top.WorldSize()),
	}
	rt.totalIters = opts.Epochs * rt.itersPerEpoch
	rt.ro = newRuntimeObs(opts.Obs, opts.Trace, top.WorldSize(), top.Nodes, rt.itersPerEpoch)
	if rt.kv != nil && opts.Obs != nil {
		rt.kv.Instrument(opts.Obs)
	}
	if fileReader, err := openDataFile(opts, rt.pfs); err != nil {
		return nil, err
	} else if fileReader != nil {
		defer fileReader.Close()
	}

	// Per-node runtimes.
	dynamic := opts.Strategy.Mode == loader.ThreadsDynamic
	var portfolio *perfmodel.PreprocPortfolio
	if dynamic {
		truth := preproc.DefaultModel()
		portfolio, err = perfmodel.FitPortfolio(nil,
			[]int64{16 << 10, 64 << 10, 105 << 10, 512 << 10}, top.CPUThreads, 6,
			func(size int64, threads int) float64 { return truth.Time(size, threads) })
		if err != nil {
			return nil, err
		}
	}
	for n := 0; n < top.Nodes; n++ {
		plan, err := access.Build(sched, n, rt.gpus, opts.Epochs, 0)
		if err != nil {
			return nil, err
		}
		node := &nodeRuntime{node: n, rt: rt, plan: plan, stopPref: make(chan struct{})}
		nc, err := newNodeCache(n, top.CacheBytes, buildNodePolicy(opts.Strategy, plan, n, dir), dir)
		if err != nil {
			return nil, err
		}
		node.cache = nc

		preWorkers, loadWorkers := initialThreads(opts.Strategy, rt.gpus, top.CPUThreads)
		node.pre, err = preproc.NewPool(preWorkers, 1024)
		if err != nil {
			return nil, err
		}
		node.queues = make([]*gpuQueue, rt.gpus)
		for j := 0; j < rt.gpus; j++ {
			node.queues[j] = newGPUQueue(node, j, loadWorkers[j], &node.loadWG)
		}
		if rt.ro != nil {
			rt.ro.instrumentNode(node)
		}
		node.serverWG.Add(1)
		go node.serveRemote()
		if opts.Strategy.PrefetchDepth > 0 {
			node.prefetcher(opts.PrefetchWorkers, opts.Strategy.PrefetchDepth)
		}
		rt.nodes = append(rt.nodes, node)

		if dynamic {
			mgr, err := threadmgr.New(threadmgr.Config{
				Hierarchy:    top.Hierarchy,
				Portfolio:    portfolio,
				TotalThreads: top.CPUThreads,
				Tau:          opts.Model.IterTime * 0.05,
			})
			if err != nil {
				return nil, err
			}
			rt.mgrs = append(rt.mgrs, mgr)
		} else {
			rt.mgrs = append(rt.mgrs, nil)
		}
	}

	stats := &Stats{Iterations: rt.totalIters}
	var verifyFail error
	var verifyMu sync.Mutex

	// Cooperative cancellation: stopIter < 0 means "run to completion";
	// otherwise every GPU stops before starting iteration stopIter. The
	// barrier's last arriver publishes the stop boundary so all GPUs
	// agree and nobody is left waiting at the barrier.
	var stopIter atomic.Int64
	stopIter.Store(-1)
	cancelled := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			close(cancelled)
		case <-rt.runDone:
		}
	}()

	start := time.Now()
	bar := newBarrier(top.WorldSize(), func(completed int) {
		select {
		case <-cancelled:
			if stopIter.Load() < 0 {
				stopIter.Store(int64(completed + 1))
			}
		default:
		}
		now := cache.Iter(completed)
		for _, node := range rt.nodes {
			node.iterNow.Store(int32(completed + 1))
			node.cache.maintain(now)
		}
		// Flush the stall ledger while every rank waits at the barrier:
		// all of iteration `completed`'s attribution has landed, and the
		// batch already in flight charges the other parity (see
		// stallLedger).
		rt.ro.flushLedger(completed)
		// Every rank has already submitted completed+1; the decision that
		// can still matter is for the batch they submit next.
		rt.decideThreads(completed + 2)
		if barrierHook != nil {
			barrierHook(rt, completed)
		}
		if opts.Chaos != nil {
			opts.Chaos.OnIteration(completed + 1)
		}
		if opts.OnProgress != nil {
			opts.OnProgress(rt.progress(completed, start))
		}
		// Wake prefetchers without blocking.
		for i := 0; i < cap(rt.tick); i++ {
			select {
			case rt.tick <- struct{}{}:
			default:
				i = cap(rt.tick)
			}
		}
	})

	var ring *allreduce.Ring
	if opts.GradientSize > 0 {
		ring, err = allreduce.NewRing(top.WorldSize())
		if err != nil {
			return nil, err
		}
	}
	gradFolds := make([]uint64, top.WorldSize())
	rankFolds := make([]uint64, top.WorldSize())
	allreduceRounds := make([]uint64, top.WorldSize())

	if opts.Chaos != nil {
		// Wire the runtime-owned injectors (soft: a harness's explicit
		// Register wins) and process boundary 0 so Start-0 events are
		// active before the first iteration; Finish reverts whatever is
		// still active when the run — however it ends — returns.
		rt.registerChaosInjectors(opts.Chaos)
		opts.Chaos.OnIteration(0)
		defer opts.Chaos.Finish()
	}

	var wg sync.WaitGroup
	rt.decideThreads(0)
	for rank := 0; rank < top.WorldSize(); rank++ {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := rt.nodes[rank/rt.gpus]
			q := node.queues[rank%rt.gpus]
			// Per-rank scratch, reused across every iteration. Legacy path:
			// one batch id slice, the verify set (only under verify) and
			// the result channel. Batched path: two pipeline slots, each a
			// completion plus its own batch id slice — batch h lives in
			// slot h&1 from its submit until its results are consumed, so
			// the loading workers of h+1 never read ids the rank is still
			// checking h against (DESIGN.md §12).
			perSample := opts.PerSample
			var out chan preproc.Result
			var expect map[dataset.SampleID]bool
			var slots [2]struct {
				comp  *preproc.Completion
				batch []dataset.SampleID
			}
			if perSample {
				out = make(chan preproc.Result, opts.Model.BatchSize)
				if verify {
					expect = make(map[dataset.SampleID]bool, opts.Model.BatchSize)
				}
			} else {
				for i := range slots {
					slots[i].comp = preproc.GetCompletion()
					defer slots[i].comp.Release()
				}
			}
			chunk := opts.Strategy.LoadChunk
			var batch []dataset.SampleID
			var grad []float64
			var rankFold uint64
			if ring != nil {
				grad = make([]float64, opts.GradientSize)
			}
			ro := rt.ro
			var stallH, trainH *obs.Histogram
			var rankTID int64
			if ro != nil {
				stallH, trainH = ro.stallSeconds[rank], ro.trainSeconds[rank]
				rankTID = ro.rankTID[rank]
			}
			// recording keeps the un-instrumented (and disabled-registry)
			// path clock-free.
			recording := func() bool { return ro != nil && (ro.trace != nil || stallH.On()) }
			// dispatch hands batch h to the loading queue (both paths).
			// When recording, the batch is dispatched with a trace context
			// (this rank, epoch, global iteration) and a submit timestamp
			// so the stall ledger can decompose the wait by cause.
			dispatch := func(h int) {
				epoch, it := h/rt.itersPerEpoch, h%rt.itersPerEpoch
				iterSeed := opts.Seed ^ uint64(h)<<20
				var tctx obs.TraceCtx
				var enq time.Time
				if recording() {
					tctx = obs.NewTraceCtx(rank, epoch, int64(h))
					enq = time.Now()
				}
				if perSample {
					batch = rt.sched.Batch(batch[:0], epoch, it, rank)
					if verify {
						clear(expect)
						for _, id := range batch {
							expect[id] = true
						}
					}
					for _, id := range batch {
						q.submit(loadRequest{id: id, seed: iterSeed ^ uint64(id), out: out, ctx: tctx, enq: enq})
					}
					return
				}
				s := &slots[h&1]
				s.batch = rt.sched.Batch(s.batch[:0], epoch, it, rank)
				s.comp.Reset(len(s.batch))
				q.submitBatch(s.batch, cache.Iter(h), iterSeed, s.comp, chunk, tctx, enq)
				rt.submitted[rank]++
			}
			// The batched path runs one batch deep — the depth the
			// simulator's PipelineDepth defaults to: batch h+1 is
			// submitted before the wait on batch h, so it loads and
			// decodes under h's compute, allreduce and barrier wait. The
			// per-sample path stays synchronous (the differential
			// reference).
			if !perSample {
				dispatch(0)
			}
			h := 0
			for ; h < rt.totalIters; h++ {
				if stopIter.Load() >= 0 && h >= int(stopIter.Load()) {
					break
				}
				if perSample {
					dispatch(h)
				} else {
					if h+1 < rt.totalIters {
						dispatch(h + 1)
					}
					batch = slots[h&1].batch
				}
				rec := recording()
				// The data-stall stage: everything between dispatching the
				// batch and holding every tensor.
				var stallStart time.Time
				if rec {
					stallStart = time.Now()
				}
				var batchFold uint64
				verified := 0
				var firstErr error
				if perSample {
					for range batch {
						res := <-out
						if res.Tensor != nil {
							batchFold ^= mix64(res.Tensor.Checksum)
						}
						if verify {
							if err := checkResult(res, expect); err != nil {
								if firstErr == nil {
									firstErr = err
								}
							} else {
								verified++
							}
						}
					}
				} else {
					for i, res := range slots[h&1].comp.Wait() {
						if res.Tensor != nil {
							batchFold ^= mix64(res.Tensor.Checksum)
						}
						if verify {
							if err := checkBatchResult(res, batch[i]); err != nil {
								if firstErr == nil {
									firstErr = err
								}
							} else {
								verified++
							}
						}
						// The tensor is consumed; recycle it (DESIGN.md
						// §12 — the training loop owns delivered tensors).
						preproc.PutTensor(res.Tensor)
					}
				}
				rankFold = rankFold*1099511628211 + mix64(batchFold)
				verifyMu.Lock()
				stats.SamplesLoaded += uint64(len(batch))
				stats.SamplesVerified += uint64(verified)
				if firstErr != nil && verifyFail == nil {
					verifyFail = firstErr
				}
				verifyMu.Unlock()
				var trainStart time.Time
				if rec {
					ro.gpuSpan("stall", stallH, rankTID, h, stallStart)
					trainStart = time.Now()
				}
				// The training stage: compute, then average the
				// pseudo-gradient with every other GPU — the collective
				// that makes any straggler a global stall.
				time.Sleep(time.Duration(opts.Model.IterTime * opts.TimeScale * float64(time.Second)))
				if ring != nil {
					for i := range grad {
						grad[i] = float64((batchFold>>uint(i%32))&0xFFFF) / 65536
					}
					if err := ring.Average(rank, grad); err != nil {
						verifyMu.Lock()
						if verifyFail == nil {
							verifyFail = err
						}
						verifyMu.Unlock()
					} else {
						// Fold the averaged gradient so ranks can be
						// compared for bit-identical results at the end.
						fold := uint64(1469598103934665603)
						for _, v := range grad {
							fold = fold*1099511628211 + math.Float64bits(v)
						}
						gradFolds[rank] = gradFolds[rank]*31 + fold
						allreduceRounds[rank]++
					}
				}
				if rec {
					ro.gpuSpan("train", trainH, rankTID, h, trainStart)
				}
				bar.wait()
			}
			if !perSample && h < rt.totalIters {
				// Stopped with batch h in flight: wait it out and recycle
				// its tensors, so every payload lease is back before
				// teardown. Not counted — the run ends at the stop boundary.
				for _, res := range slots[h&1].comp.Wait() {
					preproc.PutTensor(res.Tensor)
				}
			}
			rankFolds[rank] = rankFold
		}()
	}
	wg.Wait()
	close(rt.runDone)
	<-watcherDone
	stats.WallTime = time.Since(start)
	if stop := stopIter.Load(); stop >= 0 {
		stats.Iterations = int(stop)
	}

	// Shut down: prefetchers, queues, preproc pools, remote servers.
	for _, node := range rt.nodes {
		close(node.stopPref)
	}
	// Drain any blocked prefetcher ticks.
	for i := 0; i < cap(rt.tick); i++ {
		select {
		case rt.tick <- struct{}{}:
		default:
		}
	}
	for _, node := range rt.nodes {
		node.prefWG.Wait()
		close(node.queues[0].reqs)
		for j := 1; j < len(node.queues); j++ {
			close(node.queues[j].reqs)
		}
		node.loadWG.Wait()
		node.pre.Close()
	}
	rt.dm.Close()
	for _, node := range rt.nodes {
		node.serverWG.Wait()
	}

	for _, node := range rt.nodes {
		cs := node.cache.stats()
		stats.CacheHits += cs.Hits
		stats.CacheMisses += cs.Misses
		stats.RemoteHits += node.remoteHits.Load()
		stats.PFSReads += node.pfsReads.Load()
		stats.PFSRetries += node.pfsRetries.Load()
		stats.Prefetched += node.prefetched.Load()
		stats.Failovers += node.failovers.Load()
		stats.PartialFanouts += node.partials.Load()
		stats.FinalPreprocThreads = append(stats.FinalPreprocThreads, node.pre.Workers())
		row := make([]int, len(node.queues))
		for j, q := range node.queues {
			row[j] = q.workers()
		}
		stats.FinalLoadThreads = append(stats.FinalLoadThreads, row)
	}
	for _, f := range rankFolds {
		stats.DataFold = stats.DataFold*1099511628211 + f
	}
	if ring != nil {
		stats.AllreduceRounds = allreduceRounds[0]
		for rank := 1; rank < len(gradFolds); rank++ {
			if gradFolds[rank] != gradFolds[0] && verifyFail == nil {
				verifyFail = fmt.Errorf("runtime: rank %d averaged gradients diverged from rank 0", rank)
			}
		}
	}
	if verifyFail != nil {
		return stats, verifyFail
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	return stats, nil
}

// newPFSStoreWithFailures builds the PFS store with optional failure
// injection.
func newPFSStoreWithFailures(opts Options) *PFSStore {
	store := NewPFSStore(opts.Dataset, opts.Seed, opts.Topology.Hierarchy.PFS, opts.TimeScale)
	if opts.PFSFailureRate > 0 {
		store.SetFailureRate(opts.PFSFailureRate)
	}
	return store
}

// openDataFile attaches the on-disk dataset to the PFS store when
// configured.
func openDataFile(opts Options, store *PFSStore) (*datafile.Reader, error) {
	if opts.DataFilePath == "" {
		return nil, nil
	}
	r, err := datafile.Open(opts.DataFilePath, true)
	if err != nil {
		return nil, err
	}
	if err := store.UseFile(r); err != nil {
		_ = r.Close() // read-only descriptor; the UseFile error is what matters
		return nil, err
	}
	return r, nil
}

// progress assembles a live snapshot after `completed` finished.
func (rt *Runtime) progress(completed int, start time.Time) Progress {
	p := Progress{
		Iteration:  completed + 1,
		TotalIters: rt.totalIters,
		Epoch:      completed / rt.itersPerEpoch,
		ElapsedSec: time.Since(start).Seconds(),
	}
	for _, node := range rt.nodes {
		cs := node.cache.stats()
		p.CacheHits += cs.Hits
		p.CacheMiss += cs.Misses
		p.RemoteHits += node.remoteHits.Load()
		p.PFSReads += node.pfsReads.Load()
		p.Prefetched += node.prefetched.Load()
		p.Failovers += node.failovers.Load()
		p.PartialFanouts += node.partials.Load()
	}
	if total := p.CacheHits + p.CacheMiss; total > 0 {
		p.HitRatio = float64(p.CacheHits) / float64(total)
	}
	return p
}

// mix64 is the splitmix64 finalizer: a bijective bit mixer. Per-batch
// checksum folds XOR mixed checksums so the fold is independent of the
// order results arrive in — which makes the per-sample path (channel
// arrival order) and the batched path (slot order) byte-identical.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// checkBatchResult validates one slot of a batched iteration: slot order
// is batch order, so the expected id is known without a lookup set.
func checkBatchResult(res preproc.Result, want dataset.SampleID) error {
	if res.Err != nil {
		return res.Err
	}
	if res.Tensor.ID != want {
		return fmt.Errorf("runtime: slot for sample %d delivered sample %d", want, res.Tensor.ID)
	}
	if res.Tensor.Checksum == 0 {
		return fmt.Errorf("runtime: sample %d decoded to zero checksum", res.Tensor.ID)
	}
	return nil
}

// checkResult validates a preprocessing result against the expected batch.
func checkResult(res preproc.Result, expect map[dataset.SampleID]bool) error {
	if res.Err != nil {
		return res.Err
	}
	if !expect[res.Tensor.ID] {
		return fmt.Errorf("runtime: unexpected sample %d in batch", res.Tensor.ID)
	}
	if res.Tensor.Checksum == 0 {
		return fmt.Errorf("runtime: sample %d decoded to zero checksum", res.Tensor.ID)
	}
	return nil
}

// initialThreads derives the starting thread assignment from the strategy.
func initialThreads(spec loader.Spec, gpus, total int) (pre int, load []int) {
	load = make([]int, gpus)
	switch spec.Mode {
	case loader.ThreadsStatic:
		pre = spec.PreprocThreads
		for j := range load {
			load[j] = spec.LoadingPerGPU
		}
	case loader.ThreadsSharedPool:
		// The shared pool is approximated by spreading its workers over
		// the per-GPU queues (the online runtime always uses multi-queue
		// plumbing; the pool size is what varies).
		pre = spec.PreprocThreads
		for j := range load {
			load[j] = spec.SharedLoading/gpus + 1
		}
	default: // dynamic: start proportional, controller adjusts
		pre = total / 3
		if pre < 1 {
			pre = 1
		}
		for j := range load {
			load[j] = (total - pre) / gpus
			if load[j] < 1 {
				load[j] = 1
			}
		}
	}
	return pre, load
}

// barrierHook, when set (tests only), runs in the barrier's last-arriver
// callback after iteration `completed`, with every rank parked.
var barrierHook func(rt *Runtime, completed int)

// decideThreads sets iteration h's thread assignment: from the offline
// plan when one is loaded, otherwise from the live controller (dynamic
// strategies only).
func (rt *Runtime) decideThreads(h int) {
	if h >= rt.totalIters {
		return
	}
	if rt.opts.ThreadPlan != nil {
		for n, node := range rt.nodes {
			th := rt.opts.ThreadPlan.ThreadsAt(h)[n]
			if err := node.pre.Resize(th.Preproc); err == nil {
				total := 0
				for j, q := range node.queues {
					q.resize(th.Loading[j])
					total += th.Loading[j]
				}
				rt.ro.resizeInstant(n, th.Preproc, total)
			}
		}
		return
	}
	if h%rt.opts.DecideEvery != 0 {
		return // keep the previous allocation (Section 4.1 frequency knob)
	}
	epoch, it := h/rt.itersPerEpoch, h%rt.itersPerEpoch
	for n, node := range rt.nodes {
		mgr := rt.mgrs[n]
		if mgr == nil {
			continue
		}
		if cap(rt.decideDemands) < rt.gpus {
			rt.decideDemands = make([]threadmgr.GPUDemand, rt.gpus)
		}
		demands := rt.decideDemands[:rt.gpus]
		for j := 0; j < rt.gpus; j++ {
			rt.decideBatch = rt.sched.Batch(rt.decideBatch[:0], epoch, it, n*rt.gpus+j)
			batch := rt.decideBatch
			// Classify the whole batch with one cache lock and one
			// directory lock instead of two lock round trips per sample.
			if cap(rt.decideLocal) < len(batch) {
				rt.decideLocal = make([]bool, len(batch))
				rt.decideRemote = make([]bool, len(batch))
			}
			local := rt.decideLocal[:len(batch)]
			remote := rt.decideRemote[:len(batch)]
			node.cache.peekBatch(batch, local)
			rt.dir.HolderBatch(batch, n, remote)
			var pl perfmodel.BatchPlacement
			for i, id := range batch {
				size := rt.ds.Size(id)
				switch {
				case local[i]:
					pl.LocalBytes += size
					pl.LocalOps++
				case remote[i]:
					pl.RemoteBytes += size
					pl.RemoteOps++
				default:
					pl.PFSBytes += size
					pl.PFSOps++
				}
			}
			demands[j] = threadmgr.GPUDemand{
				Placement:    pl,
				QueueLen:     pl.TotalOps() + int(node.queues[j].pending.Load()),
				PreprocBytes: pl.TotalBytes(),
				PreprocCount: pl.TotalOps(),
			}
		}
		dec := mgr.Decide(demands, rt.opts.Model.IterTime, rt.opts.Topology.Nodes)
		if err := node.pre.Resize(dec.PreprocThreads); err == nil {
			total := 0
			for j, q := range node.queues {
				q.resize(dec.Loading[j])
				total += dec.Loading[j]
			}
			rt.ro.resizeInstant(n, dec.PreprocThreads, total)
		}
	}
}
