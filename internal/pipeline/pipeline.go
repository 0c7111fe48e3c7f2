// Package pipeline simulates the distributed DNN training pipeline of
// Figure 1 in virtual time: overlapped data loading, preprocessing and
// training across N nodes × M GPUs, with a distributed sample cache, PFS
// contention, per-iteration thread management, and clairvoyant
// prefetching.
//
// The simulation advances one global iteration at a time with the same
// quantities the paper's performance model uses: per-GPU mini-batch
// placements (Equation 1's B_HL/B_HR/B_M), tier read times T_l/T_r/T_PFS,
// preprocessing throughput, a constant per-model T_train, and the
// data-parallel allreduce barrier that turns any one GPU's data stall into
// everyone's idle time (Observation 1). The paper's own planner is
// simulator-based (Section 4.5); this package is that simulator, and it
// also holds what reads a run's output: Metrics, the Fig. 3 trace
// rendering, Train's Fig. 9 accuracy curve and BuildPlan's offline
// thread plan.
package pipeline

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/distcache"
	"repro/internal/loader"
	"repro/internal/par"
	"repro/internal/perfmodel"
	"repro/internal/plan"
	"repro/internal/preproc"
	"repro/internal/sampler"
	"repro/internal/stats"
	"repro/internal/threadmgr"
	"repro/internal/tier"
)

// Config describes one simulated training run. The model's calibrated
// values (τ, the noise processes, the imbalance threshold, the
// preprocessing model) are not options but constants (DESIGN.md §6).
type Config struct {
	Topology cluster.Topology
	Model    cluster.DNNModel
	Dataset  *dataset.Dataset
	Epochs   int
	Seed     uint64
	Strategy loader.Spec

	// PipelineDepth is how many iterations the loading pipeline may run
	// ahead of training (default 2, the usual double-buffering). An
	// option because the DESIGN.md §5 ablations sweep it.
	PipelineDepth int
	// DecideEvery is how often (in iterations) dynamic strategies re-run
	// the thread manager; between decisions the last allocation is kept.
	// Section 4.1: "The frequency of running this algorithm can be
	// adjusted to reach a trade-off where we avoid excessive overheads
	// ... while maintaining the capability to adapt quickly". Default 1;
	// an option because the DESIGN.md §5 ablations sweep it.
	DecideEvery int

	// CollectTrace records per-iteration breakdowns (Fig. 3); capped at
	// MaxTraceIters records (default 4096). Figures, the plan builder and
	// `lobster-sim trace` each set their own values.
	CollectTrace  bool
	MaxTraceIters int

	// Pool, when non-nil, parallelizes internal setup work that is
	// independent per item (currently the per-size portfolio fits of
	// dynamic strategies). It never changes a reported number — results
	// are slotted by index, so output is identical for any pool width.
	Pool *par.Pool
}

// The simulator's calibrated constants (DESIGN.md §6).
const (
	// trainJitter is the sigma of the log-normal multiplicative noise on
	// the training stage.
	trainJitter = 0.02
	// pfsNoise is the sigma of the log-normal burstiness multiplier on
	// per-GPU PFS read times. Lustre serves small random reads with highly
	// variable latency depending on OST load — the source of the "bursty
	// pattern" of Observation 2.
	pfsNoise = 0.20
	// pfsNoiseRho is the AR(1) autocorrelation of the burstiness across
	// iterations: OST congestion persists, which is what makes
	// per-iteration re-planning worthwhile.
	pfsNoiseRho = 0.6
)

// Result bundles the run metrics with the optional trace.
type Result struct {
	Metrics *Metrics
	Trace   []plan.IterRecord
	// Schedule gives access to the run's iteration arithmetic.
	IterationsPerEpoch int
	// EpochEndTimes[e] is the virtual time at which epoch e's last
	// allreduce completed (the X coordinates of Fig. 9's curves).
	EpochEndTimes []float64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.PipelineDepth == 0 {
		out.PipelineDepth = 2
	}
	if out.MaxTraceIters == 0 {
		out.MaxTraceIters = 4096
	}
	if out.DecideEvery < 1 {
		out.DecideEvery = 1
	}
	return out
}

// Run executes the simulation and returns its metrics (and trace when
// requested).
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("pipeline: nil dataset")
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("pipeline: epochs %d < 1", cfg.Epochs)
	}
	if err := cfg.Strategy.Validate(cfg.Topology.GPUsPerNode, cfg.Topology.CPUThreads); err != nil {
		return nil, err
	}
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// sim holds all mutable state of one run.
type sim struct {
	cfg   Config
	sched *sampler.Schedule
	group *distcache.Group
	mgr   *threadmgr.Manager // dynamic mode only
	truth preproc.ThroughputModel
	hier  tier.Hierarchy
	rng   *stats.RNG

	nodes, gpus int
	world       int
	iters       int // per epoch
	totalIters  int

	// Recurrence state. Loading and preprocessing are distinct stage
	// servers (I/O threads vs preprocessing pool), so they pipeline: GPU
	// g's loading of iteration h+1 overlaps the preprocessing of h
	// (Figure 1: "All these stages in the pipeline are overlapping").
	loadFree      []float64 // per global GPU: when its loading stage frees up
	preFree       []float64 // per global GPU: when its preprocessing stage frees up
	allreduceHist []float64 // ring of allreduce completion times for depth gating
	allreduceDone float64

	// Prefetch walks, one per node.
	walks []sampler.Walk

	// Per-GPU PFS burstiness state: log-space AR(1) process and the
	// factor realized for the current iteration. pfsFactorAlt is the
	// other half of a double buffer: each step writes the new factors
	// into it and swaps, so the previous iteration's factors stay
	// readable without a per-iteration allocation.
	pfsNoiseX    []float64
	pfsFactor    []float64
	pfsFactorAlt []float64

	// Scratch (reused across iterations).
	placements  [][]perfmodel.BatchPlacement // [node][gpu]
	loadTimes   [][]float64
	preTimes    [][]float64
	loadThreads [][]int              // per-GPU loading threads of the last decision
	preThreads  []int                // per-node preprocessing threads of the last decision
	iterCount   int                  // current global iteration (for DecideEvery)
	lastDecide  []threadmgr.Decision // cached decision per node
	demands     []threadmgr.GPUDemand
	batchBuf    []dataset.SampleID
	works       []float64
	numaBytes   []int64
	poolScratch []poolQueue

	// Outputs.
	runOut  *Metrics
	trace   []plan.IterRecord
	perIter []plan.GPUIter // this iteration's per-GPU breakdown
}

func newSim(cfg Config) (*sim, error) {
	top := cfg.Topology
	sched, err := sampler.New(cfg.Dataset, sampler.Config{
		WorldSize: top.WorldSize(),
		BatchSize: cfg.Model.BatchSize,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	s := &sim{
		cfg:   cfg,
		sched: sched,
		truth: preproc.DefaultModel(),
		hier:  top.Hierarchy,
		rng:   stats.NewRNG(stats.DeriveSeed(cfg.Seed, 0x717e)),
		nodes: top.Nodes,
		gpus:  top.GPUsPerNode,
		world: top.WorldSize(),
		iters: sched.IterationsPerEpoch(),
	}
	s.totalIters = cfg.Epochs * s.iters

	// Every node's full-run future-access plan, then its cache.
	plans, err := access.BuildAll(sched, s.nodes, s.gpus, cfg.Epochs, 0)
	if err != nil {
		return nil, err
	}
	caches := make([]*cache.Cache, s.nodes)
	for n := 0; n < s.nodes; n++ {
		n := n
		policy := cfg.Strategy.BuildPolicy(plans[n], func(id dataset.SampleID) bool {
			return s.group.IsLastCopy(n)(id)
		})
		c, err := cache.New(top.CacheBytes, policy)
		if err != nil {
			return nil, err
		}
		caches[n] = c
	}
	s.group, err = distcache.NewGroup(caches, cfg.Dataset.Len())
	if err != nil {
		return nil, err
	}

	if cfg.Strategy.Mode == loader.ThreadsDynamic {
		portfolio, err := perfmodel.FitPortfolio(cfg.Pool,
			[]int64{16 << 10, 32 << 10, 64 << 10, 105 << 10, 256 << 10, 512 << 10},
			top.CPUThreads, 6,
			func(size int64, threads int) float64 { return s.truth.Time(size, threads) },
		)
		if err != nil {
			return nil, err
		}
		s.mgr, err = threadmgr.New(threadmgr.Config{
			Hierarchy:    s.hier,
			Portfolio:    portfolio,
			TotalThreads: top.CPUThreads,
			Tau:          cfg.Model.IterTime * threadmgr.TauFraction,
		})
		if err != nil {
			return nil, err
		}
	}

	s.loadFree = make([]float64, s.world)
	s.preFree = make([]float64, s.world)
	s.pfsNoiseX = make([]float64, s.world)
	s.pfsFactor = make([]float64, s.world)
	s.pfsFactorAlt = make([]float64, s.world)
	for g := range s.pfsFactor {
		s.pfsFactor[g] = 1
	}
	// Ring of length depth: the slot read at iteration h was written at
	// h-depth, gating the pipeline to at most depth iterations ahead.
	s.allreduceHist = make([]float64, cfg.PipelineDepth)
	s.walks = make([]sampler.Walk, s.nodes)
	for n := range s.walks {
		s.walks[n] = sched.NewWalk(n, s.gpus, s.totalIters)
	}
	s.placements = make([][]perfmodel.BatchPlacement, s.nodes)
	s.loadTimes = make([][]float64, s.nodes)
	s.preTimes = make([][]float64, s.nodes)
	s.loadThreads = make([][]int, s.nodes)
	s.preThreads = make([]int, s.nodes)
	s.lastDecide = make([]threadmgr.Decision, s.nodes)
	for n := range s.placements {
		s.placements[n] = make([]perfmodel.BatchPlacement, s.gpus)
		s.loadTimes[n] = make([]float64, s.gpus)
		s.preTimes[n] = make([]float64, s.gpus)
		s.loadThreads[n] = make([]int, s.gpus)
	}
	s.demands = make([]threadmgr.GPUDemand, s.gpus)
	s.works = make([]float64, s.gpus)
	s.numaBytes = make([]int64, s.gpus)
	s.poolScratch = make([]poolQueue, s.gpus)
	s.perIter = make([]plan.GPUIter, s.world)

	s.runOut = &Metrics{
		Strategy:   cfg.Strategy.Name,
		Model:      cfg.Model.Name,
		Dataset:    cfg.Dataset.Name(),
		Nodes:      s.nodes,
		GPUs:       s.gpus,
		Epochs:     cfg.Epochs,
		BatchTimes: stats.NewSummary(),
	}
	return s, nil
}

func (s *sim) run() (*Result, error) {
	epochEnds := make([]float64, 0, s.cfg.Epochs)
	for h := 0; h < s.totalIters; h++ {
		s.step(h)
		if (h+1)%s.iters == 0 {
			epochEnds = append(epochEnds, s.allreduceDone)
		}
	}
	s.runOut.TotalTime = s.allreduceDone
	s.runOut.Iterations = s.totalIters
	agg := s.group.AggregateStats()
	s.runOut.CacheHits = agg.Hits
	s.runOut.CacheMisses = agg.Misses
	return &Result{
		Metrics:            s.runOut,
		Trace:              s.trace,
		IterationsPerEpoch: s.iters,
		EpochEndTimes:      epochEnds,
	}, nil
}

// step simulates global iteration h.
func (s *sim) step(h int) {
	s.iterCount = h
	epoch, it := h/s.iters, h%s.iters
	now := cache.Iter(h)

	// Phase A: demand accesses. Each GPU's mini-batch is resolved against
	// the distributed cache, recording hits and fetching misses (which
	// are then cached locally, subject to policy admission).
	activePFS := 0
	for n := 0; n < s.nodes; n++ {
		nodeHasPFS := false
		for j := 0; j < s.gpus; j++ {
			rank := n*s.gpus + j
			s.batchBuf = s.sched.Batch(s.batchBuf[:0], epoch, it, rank)
			pl := s.group.GetBatch(n, s.batchBuf, s.cfg.Dataset.Size, now)
			s.runOut.RemoteHits += uint64(pl.RemoteOps)
			s.runOut.PFSFetches += uint64(pl.PFSOps)
			if pl.PFSOps > 0 {
				nodeHasPFS = true
			}
			s.placements[n][j] = pl
		}
		if nodeHasPFS {
			activePFS++
		}
	}
	if activePFS == 0 {
		activePFS = 1
	}

	// Phase B: advance the PFS burstiness state. Thread decisions see
	// only the PREVIOUS iteration's realized factors (observable
	// feedback); actual load times use the new ones.
	// sigma and rho are variables so the arithmetic below rounds at every
	// float64 step: with constant operands Go would evaluate sigma*sigma/2
	// exactly, and the noise would move in the last bit.
	prevFactor := s.pfsFactor
	sigma, rho := pfsNoise, pfsNoiseRho
	innov := sigma * math.Sqrt(1-rho*rho)
	newFactor := s.pfsFactorAlt
	for g := 0; g < s.world; g++ {
		s.pfsNoiseX[g] = rho*s.pfsNoiseX[g] + innov*s.rng.NormFloat64()
		newFactor[g] = math.Exp(s.pfsNoiseX[g] - sigma*sigma/2)
	}
	s.pfsFactor, s.pfsFactorAlt = newFactor, prevFactor

	// Phases C-D: thread decisions, load times, preprocessing times,
	// NUMA placement effects.
	for n := 0; n < s.nodes; n++ {
		s.nodeTimes(n, activePFS, prevFactor)
		s.applyNUMA(n)
	}

	// Phase E: the pipeline recurrence and the allreduce barrier.
	prevDone := s.allreduceDone
	gate := s.allreduceHist[h%len(s.allreduceHist)] // allreduce of h-depth
	maxDone := 0.0
	for n := 0; n < s.nodes; n++ {
		for j := 0; j < s.gpus; j++ {
			g := n*s.gpus + j
			loadDone := max(s.loadFree[g], gate) + s.loadTimes[n][j]
			s.loadFree[g] = loadDone
			ready := max(s.preFree[g], loadDone) + s.preTimes[n][j]
			s.preFree[g] = ready
			trainStart := max(prevDone, ready)
			stall := trainStart - prevDone
			dur := s.cfg.Model.IterTime * s.jitter()
			maxDone = max(maxDone, trainStart+dur)
			s.runOut.TrainTimeTotal += dur
			s.perIter[g] = plan.GPUIter{Load: s.loadTimes[n][j], Preproc: s.preTimes[n][j], Train: dur, Stall: stall}
		}
	}
	s.allreduceDone = maxDone + cluster.AllreduceTime(s.world)
	s.allreduceHist[h%len(s.allreduceHist)] = s.allreduceDone
	batchTime := s.allreduceDone - prevDone
	s.runOut.BatchTimes.Add(batchTime)
	if imbalanced, _ := plan.Imbalance(s.perIter, s.cfg.Model.IterTime); imbalanced {
		s.runOut.ImbalancedIterations++
	}
	if s.cfg.CollectTrace && len(s.trace) < s.cfg.MaxTraceIters {
		threads := make([]plan.NodeThreads, s.nodes)
		for n := range threads {
			threads[n] = plan.NodeThreads{Preproc: s.preThreads[n], Loading: append([]int(nil), s.loadThreads[n]...)}
		}
		s.trace = append(s.trace, plan.NewIterRecord(epoch, it, batchTime, s.perIter, threads))
	}

	// Phase F: proactive eviction then prefetching into the spare
	// loading capacity of the iteration.
	for n := 0; n < s.nodes; n++ {
		s.group.Maintain(n, now)
	}
	if s.cfg.Strategy.PrefetchDepth > 0 {
		for n := 0; n < s.nodes; n++ {
			s.prefetch(n, h, batchTime, activePFS)
		}
	}
}

// nodeTimes fills loadTimes[n] and preTimes[n] for iteration h.
// prevFactor carries the previous iteration's realized PFS slowdowns,
// which dynamic strategies feed back into their predictions.
func (s *sim) nodeTimes(n, activePFS int, prevFactor []float64) {
	spec := s.cfg.Strategy
	switch spec.Mode {
	case loader.ThreadsStatic:
		p := spec.PreprocThreads
		s.preThreads[n] = p
		for j := 0; j < s.gpus; j++ {
			pl := s.placements[n][j]
			alloc := perfmodel.SplitThreads(&s.hier, pl, spec.LoadingPerGPU, activePFS)
			s.loadTimes[n][j] = s.noisyLoadTime(n*s.gpus+j, pl, alloc, activePFS)
			s.preTimes[n][j] = s.preShare(pl, p)
			s.loadThreads[n][j] = spec.LoadingPerGPU
		}
	case loader.ThreadsSharedPool:
		p := spec.PreprocThreads
		s.preThreads[n] = p
		for j := 0; j < s.gpus; j++ {
			pl := s.placements[n][j]
			alloc := perfmodel.SplitThreads(&s.hier, pl, spec.SharedLoading, activePFS)
			s.works[j] = s.noisyLoadTime(n*s.gpus+j, pl, alloc, activePFS)
		}
		sharedPoolTimes(s.works, s.loadTimes[n], s.poolScratch)
		share := spec.SharedLoading / s.gpus
		if share < 1 {
			share = 1
		}
		for j := 0; j < s.gpus; j++ {
			s.preTimes[n][j] = s.preShare(s.placements[n][j], p)
			// For prefetch budgeting the pool is accounted node-wide, but
			// NUMA placement sees the pool spread over the GPU queues.
			s.loadThreads[n][j] = share
		}
	case loader.ThreadsDynamic:
		for j := 0; j < s.gpus; j++ {
			pl := s.placements[n][j]
			s.demands[j] = threadmgr.GPUDemand{
				Placement:    pl,
				QueueLen:     pl.TotalOps(),
				PreprocBytes: pl.TotalBytes(),
				PreprocCount: pl.TotalOps(),
				PFSSlowdown:  prevFactor[n*s.gpus+j],
			}
		}
		var dec threadmgr.Decision
		if s.iterCount%s.cfg.DecideEvery == 0 || s.lastDecide[n].Loading == nil {
			dec = s.mgr.Decide(s.demands, s.cfg.Model.IterTime, activePFS)
			s.lastDecide[n] = dec
		} else {
			dec = s.lastDecide[n]
		}
		s.preThreads[n] = dec.PreprocThreads
		for j := 0; j < s.gpus; j++ {
			pl := s.placements[n][j]
			alloc := perfmodel.SplitThreads(&s.hier, pl, dec.Loading[j], activePFS)
			s.loadTimes[n][j] = s.noisyLoadTime(n*s.gpus+j, pl, alloc, activePFS)
			s.preTimes[n][j] = s.preShare(pl, dec.PreprocThreads)
			s.loadThreads[n][j] = dec.Loading[j]
		}
	}
}

// preShare models the node preprocessing pool shared fairly by the M
// GPUs: each GPU's batch is processed at 1/M of the pool's throughput.
func (s *sim) preShare(pl perfmodel.BatchPlacement, p int) float64 {
	if pl.TotalOps() == 0 {
		return 0
	}
	return s.truth.Time(pl.TotalBytes()*int64(s.gpus), p)
}

// applyNUMA inflates node n's preprocessing times by the cross-socket
// traffic its thread placement causes: loaded bytes decoded on the other
// socket stream over the inter-socket link (Section 5.2's NUMA effect).
// NUMA-aware strategies co-locate and pay (almost) nothing.
func (s *sim) applyNUMA(n int) {
	domains := s.cfg.Topology.NUMADomains
	if domains <= 1 {
		return
	}
	perDomain := s.cfg.Topology.CPUThreads / domains
	if perDomain < 1 {
		perDomain = 1
	}
	placement, err := assignNUMA(domains, perDomain, s.loadThreads[n], s.preThreads[n], s.cfg.Strategy.NUMAAware)
	if err != nil {
		return
	}
	bytes := s.numaBytes
	for j := 0; j < s.gpus; j++ {
		bytes[j] = s.placements[n][j].TotalBytes()
	}
	factor := numaPenalty(crossTrafficFraction(placement, bytes))
	if factor >= 1 {
		return
	}
	for j := 0; j < s.gpus; j++ {
		s.preTimes[n][j] /= factor
	}
}

// noisyLoadTime evaluates Equation 1 with the GPU's current burstiness
// factor applied to the PFS term, mapping the "no threads at all" infinity
// onto a large finite stall so the simulation continues (and the strategy
// pays dearly).
func (s *sim) noisyLoadTime(g int, pl perfmodel.BatchPlacement, alloc perfmodel.ThreadAlloc, activePFS int) float64 {
	local, remote, pfs := perfmodel.LoadTimeParts(&s.hier, pl, alloc, activePFS)
	if math.IsInf(local, 1) {
		return 3600 // an hour of virtual stall; only reachable via misconfiguration
	}
	return local + remote + pfs*s.pfsFactor[g]
}

// poolQueue is one GPU queue's (work, index) pair for sharedPoolTimes;
// the scratch slice lives on the sim so the per-iteration call does not
// allocate.
type poolQueue struct {
	w float64
	i int
}

// sharedPoolTimes computes per-GPU completion times when each GPU's work
// (expressed as "seconds alone with the whole pool") is served by a single
// pool shared fairly among the currently-active queues (processor-sharing
// / water-filling). A queue that needs w pool-seconds while k queues are
// active drains at rate 1/k. qs is caller-provided scratch of len(works).
func sharedPoolTimes(works []float64, out []float64, qs []poolQueue) {
	n := len(works)
	for i, w := range works {
		qs[i] = poolQueue{w, i}
	}
	// Insertion sort by work: n is the GPU count (8), tiny.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && qs[j].w < qs[j-1].w; j-- {
			qs[j], qs[j-1] = qs[j-1], qs[j]
		}
	}
	t, prev := 0.0, 0.0
	active := n
	for _, q := range qs {
		t += (q.w - prev) * float64(active)
		prev = q.w
		out[q.i] = t
		active--
	}
}

// jitter returns the multiplicative training-time noise (mean 1).
func (s *sim) jitter() float64 {
	sigma := trainJitter // a variable, for the rounding reason in step
	return math.Exp(sigma*s.rng.NormFloat64() - sigma*sigma/2)
}

// prefetch fills node n's spare loading capacity of iteration h with
// future samples. Candidates come from the node's walk (nearest future
// use first — Lobster's "prioritizing the prefetches with the nearest
// reuse distance" — and within a window interleaved across the GPUs); the
// walk only moves forward here, so the whole run's scan cost is linear in
// the schedule length.
func (s *sim) prefetch(n, h int, batchTime float64, activePFS int) {
	// Budget in thread-seconds. Strategies with fixed thread assignments
	// prefetch only with their dedicated background helpers (the paper's
	// second challenge: "rigid resource allocations ... lead to idle
	// resources"); Lobster's dynamic thread management additionally
	// converts every idle loading thread-second into prefetch work.
	budget := float64(s.cfg.Strategy.PrefetchThreads) * batchTime
	if s.cfg.Strategy.Mode == loader.ThreadsDynamic {
		// Idle-to-prefetch conversion efficiency: redirected threads pay
		// wake-up and coordination costs and share memory bandwidth with
		// the preprocessing pool, so an idle thread-second yields a bit
		// less than a second of useful prefetch I/O.
		const conversionEff = 0.3
		for j := 0; j < s.gpus; j++ {
			if spare := batchTime - s.loadTimes[n][j]; spare > 0 {
				budget += spare * float64(s.loadThreads[n][j]) * conversionEff
			}
		}
	}
	if budget <= 0 {
		return
	}
	// Per-candidate cost in thread-seconds: one op's latency plus the
	// transfer at the rate a single thread sees when the whole loading
	// pool is active — prefetch threads share the tier with each other
	// and with demand reads, so the solo-thread rate is not available.
	poolSize := 0
	if s.cfg.Strategy.Mode == loader.ThreadsSharedPool {
		poolSize = s.cfg.Strategy.SharedLoading
	} else {
		for j := 0; j < s.gpus; j++ {
			poolSize += s.loadThreads[n][j]
		}
	}
	if poolSize < 1 {
		poolSize = 1
	}
	now := cache.Iter(h)
	w := &s.walks[n]
	w.StartAt(h + 1)
	for budget > 0 {
		id, ok := w.Next(h + s.cfg.Strategy.PrefetchDepth)
		if !ok {
			break
		}
		where := s.group.Locate(n, id)
		if where == tier.Local {
			w.Skip()
			continue
		}
		size := s.cfg.Dataset.Size(id)
		cost := s.prefetchCost(where, size, poolSize, activePFS)
		if cost > budget {
			// Leave the walk on this candidate; the next iteration's
			// budget resumes here.
			break
		}
		w.Skip()
		if !s.group.Put(n, id, size, now) {
			// The policy refused: every remaining candidate is needed
			// even later, so it would refuse them too.
			return
		}
		budget -= cost
		s.runOut.PrefetchedBytes += size
	}
}

// prefetchCost is the thread-seconds cost of prefetching one sample of
// `size` bytes from `where`, with `pool` loading threads concurrently
// active on the node.
func (s *sim) prefetchCost(where tier.Kind, size int64, pool, activePFS int) float64 {
	curve := s.hier.CurveOf(where)
	if where == tier.PFS {
		curve = s.hier.PFSNodeCurve(activePFS)
	}
	perThread := curve.PerThread(pool)
	if perThread <= 0 {
		return math.Inf(1)
	}
	return curve.OpLatency + float64(size)/(perThread*1e6)
}
