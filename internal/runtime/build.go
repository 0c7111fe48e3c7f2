package runtime

import (
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/allreduce"
	"repro/internal/loader"
	"repro/internal/perfmodel"
	"repro/internal/preproc"
	"repro/internal/sampler"
	"repro/internal/threadmgr"
)

// normalize validates the options and fills in the defaults.
func (o *Options) normalize() error {
	if o.Dataset == nil {
		return fmt.Errorf("runtime: nil dataset")
	}
	if err := o.Topology.Validate(); err != nil {
		return err
	}
	if o.Epochs < 1 {
		return fmt.Errorf("runtime: epochs %d < 1", o.Epochs)
	}
	if err := o.Strategy.Validate(o.Topology.GPUsPerNode, o.Topology.CPUThreads); err != nil {
		return err
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 0.01
	}
	if o.GradientSize == 0 {
		o.GradientSize = 64
	}
	if o.ThreadPlan != nil {
		if err := o.ThreadPlan.Validate(); err != nil {
			return err
		}
		if o.ThreadPlan.Nodes != o.Topology.Nodes ||
			o.ThreadPlan.GPUsPerNode != o.Topology.GPUsPerNode {
			return fmt.Errorf("runtime: plan topology %dx%d does not match run topology %dx%d",
				o.ThreadPlan.Nodes, o.ThreadPlan.GPUsPerNode,
				o.Topology.Nodes, o.Topology.GPUsPerNode)
		}
	}
	return nil
}

// build validates opts, applies the defaults and constructs the run:
// schedule, directory, stores, per-node runtimes with their goroutines
// started, thread managers, and the allreduce group that is the
// iteration barrier. The modeled delays wait on clk; given nil, build
// starts a wall clock that belongs to the run. The returned cleanup is the run's single teardown; the caller runs
// it exactly once, after every rank has returned. On error build has
// already run it, so a failed build leaves no goroutine and no open file
// behind.
func build(opts Options, clk clock) (*Runtime, func(), error) {
	if err := opts.normalize(); err != nil {
		return nil, nil, err
	}
	top := opts.Topology
	sched, err := sampler.New(opts.Dataset, sampler.Config{
		WorldSize: top.WorldSize(),
		BatchSize: opts.Model.BatchSize,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	dir, err := NewDirectory(opts.Dataset.Len(), top.Nodes)
	if err != nil {
		return nil, nil, err
	}
	ro := newRuntimeObs(opts.Obs, opts.Trace, top.WorldSize(), top.Nodes, sched.IterationsPerEpoch(), opts.Model.IterTime*opts.TimeScale)
	stopClock := func() {}
	if clk == nil {
		wall := newWallClock(ro.clockOvershootHist())
		clk, stopClock = wall, wall.stop
	}
	rt := &Runtime{
		opts:          opts,
		ds:            opts.Dataset,
		sched:         sched,
		dir:           dir,
		dm:            newDistributionManager(top.Nodes, top.Hierarchy.Remote, opts.TimeScale, clk),
		pfs:           newPFSStore(opts.Dataset, opts.Seed, top.Hierarchy.PFS, opts.TimeScale, clk),
		clk:           clk,
		ro:            ro,
		gpus:          top.GPUsPerNode,
		itersPerEpoch: sched.IterationsPerEpoch(),
		submitted:     make([]int, top.WorldSize()),
		trainDue:      make([]time.Time, top.WorldSize()),
	}
	rt.totalIters = opts.Epochs * rt.itersPerEpoch
	rt.stopIter.Store(-1)

	cleanup := func() {
		rt.shutdown()
		stopClock() // after the last waiter
	}
	fail := func(err error) (*Runtime, func(), error) {
		cleanup()
		return nil, nil, err
	}
	if rt.allreduce, err = allreduce.NewGroup(top.WorldSize(), rt.endIteration); err != nil {
		return fail(err)
	}
	var portfolio *perfmodel.PreprocPortfolio
	if opts.Strategy.Mode == loader.ThreadsDynamic {
		truth := preproc.DefaultModel()
		portfolio, err = perfmodel.FitPortfolio(nil,
			[]int64{16 << 10, 64 << 10, 105 << 10, 512 << 10}, top.CPUThreads, 6,
			func(size int64, threads int) float64 { return truth.Time(size, threads) })
		if err != nil {
			return fail(err)
		}
	}
	// Every node's plan from one walk of the schedule, before the first
	// node starts: set-up a run pays once, ahead of its first iteration.
	plans, err := access.BuildAll(sched, top.Nodes, rt.gpus, opts.Epochs, 0)
	if err != nil {
		return fail(err)
	}
	for n, plan := range plans {
		if err := rt.addNode(n, plan, portfolio); err != nil {
			return fail(err)
		}
	}
	if opts.Chaos != nil {
		// Wire the runtime-owned injectors (soft: a harness's explicit
		// Register wins).
		rt.registerChaosInjectors(opts.Chaos)
	}
	return rt, cleanup, nil
}

// addNode builds node n around its access plan, starts its goroutines and
// appends it to the runtime together with its thread manager (nil when
// portfolio is nil: the strategy is not dynamic). Every step that can fail
// comes before the node's first goroutine — the pool, which starts its
// workers, is the last of them — so a node is either not started at all or
// in rt.nodes for shutdown to stop.
func (rt *Runtime) addNode(n int, plan *access.Plan, portfolio *perfmodel.PreprocPortfolio) error {
	opts, top := &rt.opts, rt.opts.Topology
	nc, err := newNodeCache(n, rt.ds.Len(), top.CacheBytes, buildNodePolicy(opts.Strategy, plan, n, rt.dir), rt.dir)
	if err != nil {
		return err
	}
	rt.dm.caches[n] = nc
	var mgr *threadmgr.Manager
	if portfolio != nil {
		mgr, err = threadmgr.New(threadmgr.Config{
			Hierarchy:    top.Hierarchy,
			Portfolio:    portfolio,
			TotalThreads: top.CPUThreads,
			Tau:          opts.Model.IterTime * threadmgr.TauFraction,
		})
		if err != nil {
			return err
		}
	}
	preWorkers, loadWorkers := initialThreads(opts.Strategy, rt.gpus, top.CPUThreads)
	pre, err := preproc.NewPool(preWorkers, 1024)
	if err != nil {
		return err
	}
	node := &nodeRuntime{node: n, rt: rt, plan: plan, cache: nc, pre: pre, tick: make(chan struct{}, 1), stopPref: make(chan struct{})}
	perIter := rt.gpus * opts.Model.BatchSize
	if slots := prefetchSlots(opts.Strategy, top.Hierarchy.PFS, opts.Model.IterTime, top.CacheBytes, rt.ds.TotalBytes(), rt.ds.MeanSize(), perIter); slots > 0 {
		depth := feedDepth(opts.Strategy.PrefetchDepth, top.CacheBytes, rt.ds.TotalBytes(), rt.ds.MeanSize(), perIter)
		node.feed = newPrefetchFeed(rt.sched, n, rt.gpus, rt.totalIters, depth, nc.contains)
		node.slots = make([]prefetchSlot, slots)
		node.workAhead = opts.Strategy.Mode == loader.ThreadsDynamic
	}
	if nodeHook != nil {
		nodeHook(node)
	}
	node.queues = make([]*gpuQueue, rt.gpus)
	for j := range node.queues {
		node.queues[j] = newGPUQueue(node, j, loadWorkers[j])
	}
	if rt.ro != nil {
		rt.ro.instrumentNode(node)
	}
	if len(node.slots) > 0 {
		node.prefWG.Add(1)
		go node.prefetchLoop()
	}
	rt.nodes = append(rt.nodes, node)
	rt.mgrs = append(rt.mgrs, mgr)
	return nil
}

// nodeHook, when set (tests only), sees each node after addNode has built
// it and before its first goroutine starts — the last moment its feed,
// its read slots and its work-ahead switch may change.
var nodeHook func(*nodeRuntime)

// shutdown stops everything addNode started, for however many nodes were
// added: prefetch loops (closing stopPref also ends the loading workers'
// claims on the feed), loading queues, then preprocessing pools. The
// queues must be idle — every rank has consumed or drained what it
// submitted.
func (rt *Runtime) shutdown() {
	for _, node := range rt.nodes {
		close(node.stopPref)
	}
	for _, node := range rt.nodes {
		node.prefWG.Wait()
		for _, q := range node.queues {
			close(q.reqs)
		}
		for _, q := range node.queues {
			q.crew.Wait()
		}
		node.pre.Close()
	}
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
