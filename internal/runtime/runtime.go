package runtime

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/allreduce"
	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/preproc"
	"repro/internal/sampler"
	"repro/internal/threadmgr"
	"repro/internal/tier"
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
	// ThreadPlan, when non-nil, switches thread management into
	// plan-following mode: each iteration's pool sizes come from the
	// pre-computed offline plan (Section 4.5) instead of the live
	// controller. The plan's topology must match.
	ThreadPlan *plan.Plan
	// GradientSize is the per-iteration pseudo-gradient length each GPU
	// contributes to the allreduce that is the data-parallel barrier
	// (default 64; -1 averages zero-length gradients: the same
	// rendezvous, with no sum to fold). All ranks must obtain
	// bit-identical averaged gradients; the run fails verification
	// otherwise. It stays an option because the benchmark's
	// allreduce-free what-if sets -1.
	GradientSize int
	// OnProgress, when non-nil, receives a Progress snapshot at the end
	// of every iteration (from the barrier's last arriver). Keep the
	// callback cheap; it runs on the training critical path.
	OnProgress func(Progress)
	// Obs, when non-nil, is the instrument registry the run records into:
	// per-stage latency histograms (stall/load/preproc), per-GPU queue
	// depths, cache/PFS counters — everything a monitor.Server serves at
	// /metrics.
	Obs *obs.Registry
	// Trace, when non-nil, receives per-stage spans (stall/train per
	// rank, load per loading worker, preproc per pool worker, per-cause
	// stall and prefetch ledger flushes, thread-resize instants) for
	// /trace.json dumps.
	Trace *obs.TraceRing
	// Chaos, when non-nil, drives deterministic fault injection: the
	// barrier's last arriver ticks the controller at every iteration
	// boundary, and the runtime registers default injectors for the fault
	// kinds it owns (PFS brownouts, straggler peers, cache-node crashes,
	// slow decode workers) — see internal/chaos and DESIGN.md §13. A
	// harness may Register its own injector for any of these kinds
	// before the run; it replaces the runtime's.
	Chaos *chaos.Controller
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
	// WorkAhead, PrefetchLate and StagedEvicted mirror the Stats fields
	// of the same names mid-run.
	WorkAhead     uint64 `json:"work_ahead"`
	PrefetchLate  uint64 `json:"prefetch_late"`
	StagedEvicted uint64 `json:"staged_evicted"`
	// Failovers mirrors the Stats field of the same name mid-run, so
	// health endpoints can surface recovery-layer pressure while the run
	// is still going.
	Failovers     uint64  `json:"failovers"`
	EvictionRaces uint64  `json:"eviction_races"`
	HitRatio      float64 `json:"hit_ratio"`
	ElapsedSec    float64 `json:"elapsed_sec"`
}

// HealthSignals implements monitor.HealthSignaler (structurally; the
// runtime does not import the monitor): a /healthz probe on a monitor
// fed with Progress snapshots shows recovery-layer pressure inline.
func (p Progress) HealthSignals() map[string]uint64 {
	return map[string]uint64{
		"failovers": p.Failovers,
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
	// WorkAhead is the part of Prefetched that loading workers staged while
	// their own queue was empty (dynamic strategies only), the rest being
	// the prefetch loops'.
	WorkAhead uint64
	// PrefetchLate counts demand misses on a sample a prefetch loop or a
	// loading worker working ahead had in flight at that moment:
	// prefetches issued too late to spare the demand read. The demand read
	// does not wait for the other one.
	PrefetchLate uint64
	// StagedEvicted counts staged samples the node caches evicted before
	// any rank or peer read them (a cache-node crash's losses included):
	// storage reads the prefetching paid for and nothing used.
	StagedEvicted uint64
	// AllreduceRounds counts the allreduce rounds rank 0 completed: one
	// per iteration, whatever GradientSize.
	AllreduceRounds uint64
	// Failovers counts peer reads, demand or prefetch, that fell over to
	// the PFS because the peer broke its promise: it was down, the fetch
	// failed, or the copy failed dataset.VerifyPayload — the recovery
	// layer's "how often did the middle tier let us down" number. A
	// fault-free run reports none.
	Failovers uint64
	// EvictionRaces counts peer reads that found the sample gone because
	// the holder evicted it after the directory lookup. The directory is
	// advisory, so this is the normal path; its PFS read is charged to
	// pfs, not to recovery.
	EvictionRaces uint64
	// DataFold is a deterministic fold of every decoded tensor checksum:
	// a rank-major chain of per-iteration folds, where each iteration's
	// fold is order-independent (results may finish in any order within
	// a batch). Identical across runs with the same options, and equal to
	// what a serial walk of the schedule over the dataset's payloads
	// computes — TestRunMatchesSerialOracle pins both.
	DataFold uint64
	// FinalPreprocThreads/FinalLoadThreads record the last thread
	// decision per node (diagnostics for the thread-tuning example).
	FinalPreprocThreads []int
	FinalLoadThreads    [][]int
	// Trace holds the first maxRecords iterations' records when the run
	// records attribution (Options.Trace or an enabled Options.Obs), nil
	// otherwise (see runtimeObs.recordIteration).
	Trace []plan.IterRecord
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
	nodes []*nodeRuntime
	mgrs  []*threadmgr.Manager
	clk   clock       // where the modeled delays wait
	ro    *runtimeObs // nil when the run is un-instrumented
	// allreduce is the gradient average and the iteration barrier in one:
	// its last arriver runs endIteration with every other rank parked.
	allreduce *allreduce.Ring

	gpus          int
	itersPerEpoch int
	totalIters    int
	start         time.Time

	// Cooperative cancellation: cancel is the run context's Done channel;
	// stopIter < 0 means "run to completion", otherwise every GPU stops
	// before starting iteration stopIter. The barrier's last arriver
	// publishes the stop boundary so all GPUs agree and nobody is left
	// waiting at the barrier.
	cancel   <-chan struct{}
	stopIter atomic.Int64

	// submitted counts the batches each rank has handed to its queue. Each
	// rank writes only its own element; the barrier's last arriver may
	// read them all (every other rank is parked in the barrier, whose
	// mutex orders the accesses).
	submitted []int
	// trainDue holds each rank's booked end of compute for the iteration
	// in progress, written by the rank before it arrives at the barrier
	// and read by the last arriver, under the same ordering as submitted.
	trainDue []time.Time
	// release is when the barrier last let the ranks go, on the run's
	// clock: the run's start, then the end of every endIteration. The last
	// arriver writes it with every other rank parked; the ranks read it
	// once released, under the same ordering as submitted.
	release time.Time

	// decideThreads scratch, reused across iterations (only the barrier's
	// last-arriving rank runs decisions, one iteration at a time, so no
	// synchronization is needed).
	decideDemands []threadmgr.GPUDemand
	decideBatch   []dataset.SampleID
	decideLocal   []bool
	decideRemote  []bool
}

// Run executes the online training and returns its statistics.
func Run(opts Options) (*Stats, error) {
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: when ctx is cancelled, every GPU
// stops at its next iteration boundary, the runtime shuts down cleanly
// (queues drained, prefetchers and pools stopped), and the partial
// statistics are returned alongside ctx.Err().
func RunContext(ctx context.Context, opts Options) (*Stats, error) {
	return run(ctx, opts, nil)
}

// run is RunContext with the modeled delays waiting on clk; nil gives the
// run a wall clock of its own.
func run(ctx context.Context, opts Options, clk clock) (*Stats, error) {
	rt, cleanup, err := build(opts, clk)
	if err != nil {
		return nil, err
	}
	rt.cancel = ctx.Done()
	rt.start = time.Now()
	rt.release = rt.clk.now()
	if rt.ro != nil {
		rt.ro.lastEnd = rt.release
	}
	if opts.Chaos != nil {
		// Process boundary 0 so Start-0 events are active before the first
		// iteration; Finish reverts whatever is still active when the run —
		// however it ends — returns.
		opts.Chaos.OnIteration(0)
		defer opts.Chaos.Finish()
	}
	rt.decideThreads(0)
	results := make([]rankResult, opts.Topology.WorldSize())
	var wg sync.WaitGroup
	for rank := range results {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[rank] = rt.runRank(rank)
		}()
	}
	wg.Wait()
	wall := time.Since(rt.start)
	cleanup()
	stats, err := rt.collect(results, wall)
	if err == nil {
		err = ctx.Err()
	}
	return stats, err
}

// rankResult is what one rank's loop hands to collect.
type rankResult struct {
	loaded, verified uint64
	fold             uint64 // chain of the rank's per-iteration batch folds
	gradFold         uint64 // chain of averaged-gradient folds, compared across ranks
	rounds           uint64 // allreduce rounds completed
	err              error  // first verification or allreduce failure
}

// runRank is one GPU's training loop. Batch h+1 is submitted before the
// wait on batch h, so it loads and decodes under h's compute and
// allreduce (the barrier): batch h+1 starts loading once the allreduce of
// h-1 has released, which is the simulator's gate at its default
// PipelineDepth of 2. The rank does not wait out its own compute: it
// books it on the run's clock from max(release, done), when the barrier
// let it go and when its batch was whole (the simulator's trainStart),
// however late its goroutine woke to book it, and arrives at the
// allreduce at once. The barrier waits once for the latest booked
// deadline (endIteration), and for every rank to arrive, so a rank whose
// own path outlasts the step still holds the release.
func (rt *Runtime) runRank(rank int) (res rankResult) {
	opts := &rt.opts
	q := rt.nodes[rank/rt.gpus].queues[rank%rt.gpus]
	// Two pipeline slots, each a completion plus its own batch id slice,
	// reused across every iteration — batch h lives in slot h&1 from its
	// submit until its results are consumed, so the loading workers of h+1
	// never read ids the rank is still checking h against (DESIGN.md §12).
	var slots [2]struct {
		comp  *preproc.Completion
		batch []dataset.SampleID
	}
	for i := range slots {
		slots[i].comp = preproc.GetCompletion()
		slots[i].comp.SetClock(rt.clk.now)
		defer slots[i].comp.Release()
	}
	grad := make([]float64, max(opts.GradientSize, 0))
	step := time.Duration(opts.Model.IterTime * opts.TimeScale * float64(time.Second))
	ro := rt.ro
	var stallH, trainH, lateH *obs.Histogram
	var rankTID int64
	if ro != nil {
		stallH, trainH, lateH = ro.stallSeconds[rank], ro.trainSeconds[rank], ro.computeLate[rank]
		rankTID = ro.rankTID[rank]
	}
	// recording keeps the un-instrumented (and disabled-registry) path
	// clock-free.
	recording := func() bool { return ro != nil && (ro.trace != nil || stallH.On()) }
	// dispatch hands batch h to the rank's queue: its cache hits to the
	// decode pool, its misses to the loading workers (submitBatch). When
	// recording, the batch is dispatched with a trace context (this rank,
	// epoch, global iteration) and a submit timestamp so the stall ledger
	// can decompose the wait by cause.
	dispatch := func(h int) {
		epoch, it := h/rt.itersPerEpoch, h%rt.itersPerEpoch
		var tctx obs.TraceCtx
		var enq time.Time
		if recording() {
			tctx = obs.NewTraceCtx(rank, epoch, int64(h))
			enq = time.Now()
		}
		s := &slots[h&1]
		s.batch = rt.sched.Batch(s.batch[:0], epoch, it, rank)
		s.comp.Reset(len(s.batch))
		q.submitBatch(s.batch, cache.Iter(h), opts.Seed^uint64(h)<<20, s.comp, tctx, enq)
		rt.submitted[rank]++
	}
	dispatch(0)
	h := 0
	for ; h < rt.totalIters; h++ {
		if stop := rt.stopIter.Load(); stop >= 0 && h >= int(stop) {
			break
		}
		release := rt.release
		if h+1 < rt.totalIters {
			dispatch(h + 1)
		}
		batch := slots[h&1].batch
		var batchFold uint64
		for i, r := range slots[h&1].comp.Wait() {
			if r.Tensor != nil {
				batchFold ^= mix64(r.Tensor.Checksum)
			}
			if err := checkBatchResult(r, batch[i]); err != nil {
				if res.err == nil {
					res.err = err
				}
			} else {
				res.verified++
			}
			// The tensor is consumed; recycle it (DESIGN.md §12 — the
			// training loop owns delivered tensors).
			preproc.PutTensor(r.Tensor)
		}
		res.fold = res.fold*1099511628211 + mix64(batchFold)
		res.loaded += uint64(len(batch))
		if rankHook != nil {
			rankHook(rank, h)
		}
		// The training stage: the compute starts once the barrier has
		// released and the batch is whole, and it is booked from then,
		// however late this goroutine got a CPU to book it (late): that
		// lateness is the clock's model error, not modeled time. Then the
		// rank averages the pseudo-gradient with every other GPU, the
		// collective that makes any straggler a global stall, and the
		// barrier whose last arriver waits for the latest booked compute
		// to end and then ends the iteration.
		start := release
		if done := slots[h&1].comp.Done(); done.After(start) {
			start = done
		}
		late := rt.clk.now().Sub(start)
		rt.trainDue[rank] = rt.clk.deadline(late, step)
		if recording() {
			// The data stall, as simulated, runs from the release to the
			// start, and the compute is the booked step from there. The
			// wait at the barrier from this rank's deadline to the release
			// is the record's Idle.
			ro.gpu[rank].Stall = ro.gpuSpan("stall", stallH, rankTID, h, release, start.Sub(release))
			ro.gpu[rank].Train = ro.gpuSpan("train", trainH, rankTID, h, start, step)
			lateH.Observe(late.Seconds())
		}
		for i := range grad {
			grad[i] = float64((batchFold>>uint(i%32))&0xFFFF) / 65536
		}
		if err := rt.allreduce.Average(rank, grad); err != nil {
			if res.err == nil {
				res.err = err
			}
		} else {
			// Fold the averaged gradient so ranks can be compared for
			// bit-identical results at the end.
			fold := uint64(1469598103934665603)
			for _, v := range grad {
				fold = fold*1099511628211 + math.Float64bits(v)
			}
			res.gradFold = res.gradFold*31 + fold
			res.rounds++
		}
	}
	if h < rt.totalIters {
		// Stopped with batch h in flight: wait it out and recycle its
		// tensors, so every payload lease is back before teardown. Not
		// counted — the run ends at the stop boundary.
		for _, r := range slots[h&1].comp.Wait() {
			preproc.PutTensor(r.Tensor)
		}
	}
	return res
}

// endIteration is the allreduce's last-arriver action after iteration
// `completed`, run with every other rank parked in the allreduce. Every
// rank has booked its compute, so the barrier first does the bookkeeping
// that needs nothing from the release — maintenance, the ledger flush,
// the thread decision — inside the modeled compute, then waits once for
// the latest booked deadline, and only then crosses the iteration
// boundary. Its last act is to stamp the release, so the ranks' next
// compute is booked from after all of it. No lock is held across the
// wait.
func (rt *Runtime) endIteration(completed int) {
	now := cache.Iter(completed)
	for _, node := range rt.nodes {
		node.cache.maintain(now)
	}
	// Flush the stall ledger while every rank waits at the barrier: all of
	// iteration `completed`'s attribution has landed, and the batch already
	// in flight charges the other parity (see stallLedger).
	rt.ro.flushLedger(completed, rt.nodes)
	// Every rank has already submitted completed+1; the decision that can
	// still matter is for the batch they submit next.
	rt.decideThreads(completed + 2)
	latest := rt.trainDue[0]
	for _, t := range rt.trainDue[1:] {
		if t.After(latest) {
			latest = t
		}
	}
	rt.clk.untilRelease(latest)

	// The iteration boundary: the release.
	for _, node := range rt.nodes {
		node.iterNow.Store(int32(completed + 1))
	}
	rt.ro.recordIteration(completed, rt.nodes, rt.clk.now())
	select {
	case <-rt.cancel:
		if rt.stopIter.Load() < 0 {
			rt.stopIter.Store(int64(completed + 1))
		}
	default:
	}
	if rt.opts.Chaos != nil {
		rt.opts.Chaos.OnIteration(completed + 1)
	}
	if rt.opts.OnProgress != nil {
		rt.opts.OnProgress(rt.progress(completed))
	}
	// Wake the prefetch loops without blocking.
	for _, node := range rt.nodes {
		select {
		case node.tick <- struct{}{}:
		default:
		}
	}
	// The ranks' next compute starts no earlier than now: all of the
	// boundary's bookkeeping is on the critical path.
	rt.release = rt.clk.now()
	if barrierHook != nil {
		barrierHook(rt, completed)
	}
}

// collect folds the per-rank results and the node counters into the
// run's Stats, after cleanup has stopped every worker. The error is the
// first verification failure in rank order, if any.
func (rt *Runtime) collect(results []rankResult, wall time.Duration) (*Stats, error) {
	c := rt.counters()
	stats := &Stats{
		WallTime: wall, Iterations: rt.totalIters,
		CacheHits: c.CacheHits, CacheMisses: c.CacheMiss, RemoteHits: c.RemoteHits, PFSReads: c.PFSReads,
		Prefetched: c.Prefetched, WorkAhead: c.WorkAhead, PrefetchLate: c.PrefetchLate, StagedEvicted: c.StagedEvicted,
		Failovers: c.Failovers, EvictionRaces: c.EvictionRaces,
	}
	if stop := rt.stopIter.Load(); stop >= 0 {
		stats.Iterations = int(stop)
	}
	if rt.ro != nil {
		stats.Trace = rt.ro.records
	}
	for _, node := range rt.nodes {
		stats.PFSRetries += node.pfsRetries.Load()
		th := node.threads()
		stats.FinalPreprocThreads = append(stats.FinalPreprocThreads, th.Preproc)
		stats.FinalLoadThreads = append(stats.FinalLoadThreads, th.Loading)
	}
	var fail error
	for _, r := range results {
		stats.SamplesLoaded += r.loaded
		stats.SamplesVerified += r.verified
		stats.DataFold = stats.DataFold*1099511628211 + r.fold
		if fail == nil {
			fail = r.err
		}
	}
	stats.AllreduceRounds = results[0].rounds
	for rank := 1; rank < len(results) && fail == nil; rank++ {
		if results[rank].gradFold != results[0].gradFold {
			fail = fmt.Errorf("runtime: rank %d averaged gradients diverged from rank 0", rank)
		}
	}
	return stats, fail
}

// progress assembles a live snapshot after `completed` finished.
func (rt *Runtime) progress(completed int) Progress {
	p := rt.counters()
	p.Iteration, p.TotalIters, p.Epoch = completed+1, rt.totalIters, completed/rt.itersPerEpoch
	p.ElapsedSec = time.Since(rt.start).Seconds()
	if total := p.CacheHits + p.CacheMiss; total > 0 {
		p.HitRatio = float64(p.CacheHits) / float64(total)
	}
	return p
}

// counters sums the node counters Stats and Progress both report into
// a Progress's counter fields.
func (rt *Runtime) counters() (p Progress) {
	for _, node := range rt.nodes {
		cs := node.cache.stats()
		p.CacheHits += cs.Hits
		p.CacheMiss += cs.Misses
		p.RemoteHits += node.remoteHits.Load()
		p.PFSReads += node.pfsReads.Load()
		p.Prefetched += node.prefetched.Load()
		p.WorkAhead += node.stagedByLoaders.Load()
		p.PrefetchLate += node.prefetchLate.Load()
		p.StagedEvicted += node.cache.stagedEvicted.Load()
		p.Failovers += node.failovers.Load()
		p.EvictionRaces += node.evictionRaces.Load()
	}
	return p
}

// mix64 is the splitmix64 finalizer: a bijective bit mixer. Per-batch
// checksum folds XOR mixed checksums so the fold is independent of the
// order results arrive in, and a serial walk of the batch reproduces it.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// checkBatchResult validates one slot of an iteration's completion: slot
// order is batch order, so the expected id is known without a lookup set.
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

// barrierHook, when set (tests only), runs in the barrier's last-arriver
// callback at the boundary after iteration `completed` (after the train
// wait and the release stamp), with every rank parked.
var barrierHook func(rt *Runtime, completed int)

// rankHook, when set (tests only), runs on rank's goroutine once it holds
// batch h, before it books the compute.
var rankHook func(rank, h int)

// decideThreads sets iteration h's thread assignment: from the offline
// plan when one is loaded, otherwise from the live controller (dynamic
// strategies only), which re-decides every iteration.
func (rt *Runtime) decideThreads(h int) {
	if h >= rt.totalIters {
		return
	}
	if rt.opts.ThreadPlan != nil {
		for n, th := range rt.opts.ThreadPlan.ThreadsAt(h) {
			rt.applyThreads(n, th)
		}
		return
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
				where := tier.PFS
				if local[i] {
					where = tier.Local
				} else if remote[i] {
					where = tier.Remote
				}
				pl.AddSample(where, rt.ds.Size(id))
			}
			demands[j] = threadmgr.GPUDemand{
				Placement:    pl,
				QueueLen:     pl.TotalOps() + int(node.queues[j].pending.Load()),
				PreprocBytes: pl.TotalBytes(),
				PreprocCount: pl.TotalOps(),
			}
		}
		dec := mgr.Decide(demands, rt.opts.Model.IterTime, rt.opts.Topology.Nodes)
		rt.applyThreads(n, plan.NodeThreads{Preproc: dec.PreprocThreads, Loading: dec.Loading})
	}
}

// applyThreads resizes node n's preprocessing pool and loading queues to
// th and records the decision as an instant on the node's controller
// track; when the pool refuses the size, nothing changes.
func (rt *Runtime) applyThreads(n int, th plan.NodeThreads) {
	node := rt.nodes[n]
	if err := node.pre.Resize(th.Preproc); err != nil {
		return
	}
	for j, q := range node.queues {
		q.resize(th.Loading[j])
	}
	if rt.ro != nil {
		rt.ro.trace.Instant("thread_resize", "ctrl", rt.ro.ctrlTID[n],
			"preproc", int64(th.Preproc), "load_total", int64(th.Total()-th.Preproc))
	}
}
