package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/allreduce"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/distcache"
	"repro/internal/loader"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/preproc"
	"repro/internal/runtime"
	"repro/internal/sampler"
	"repro/internal/threadmgr"
	"repro/internal/tier"
)

// ceiling drives one layer alone: it repeats pass() for about budget
// (at least five passes), where each pass reports the seconds it spent
// inside the layer and how many calls that covered, and returns the
// median seconds per call. The median over passes sheds the cold first
// pass and any pass a GC cycle landed in.
func ceiling(budget time.Duration, pass func() (secs float64, calls int)) float64 {
	var per []float64
	for deadline := time.Now().Add(budget); len(per) < 5 || time.Now().Before(deadline); {
		secs, calls := pass()
		per = append(per, secs/float64(calls))
	}
	return median(sortedCopy(per))
}

// timed is the pass for a layer whose call needs nothing between calls:
// n back-to-back calls under one pair of clock reads.
func timed(n int, call func()) func() (float64, int) {
	return func() (float64, int) {
		start := time.Now()
		for i := 0; i < n; i++ {
			call()
		}
		return time.Since(start).Seconds(), n
	}
}

// rtCeilings times the live runtime's stages one at a time, single
// goroutine except the allreduce, through the same public calls the
// runtime makes.
func rtCeilings(c rtConfig, ds *dataset.Dataset, seed uint64, budget time.Duration, layers map[string]float64) error {
	// PFS: one reader, so each read pays its modeled latency plus its
	// own bandwidth slot and never queues behind another.
	pfs := runtime.NewPFSStore(ds, seed, tier.ThetaGPULike().PFS, c.timeScale)
	var readErr error
	next := 0
	layers["runtime.pfs_read_us"] = 1e6 * ceiling(budget, timed(64, func() {
		buf, err := pfs.Read(dataset.SampleID(next % ds.Len()))
		next++
		if err != nil && readErr == nil {
			readErr = err
		}
		preproc.PutPayloadBuf(buf)
	}))
	if readErr != nil {
		return fmt.Errorf("pfs ceiling: %w", readErr)
	}

	sched, err := sampler.New(ds, sampler.Config{WorldSize: c.world(), BatchSize: rtBatch, Seed: seed})
	if err != nil {
		return err
	}
	iters := sched.IterationsPerEpoch()
	var batch []dataset.SampleID
	layers["sampler.batch_ns"] = 1e9 * ceiling(budget, timed(4096, func() {
		batch = sched.Batch(batch[:0], next/iters%4, next%iters, next%c.world())
		next++
	}))

	// Directory: the thread controller's whole-node-batch holder scan,
	// with every other sample held by a peer.
	dir, err := runtime.NewDirectory(ds.Len(), 2)
	if err != nil {
		return err
	}
	for id := 0; id < ds.Len(); id += 2 {
		dir.Add(1, dataset.SampleID(id))
	}
	nodeBatch := sched.NodeBatch(nil, 0, 0, 0, c.gpus)
	held := make([]bool, len(nodeBatch))
	layers["runtime.directory_holderbatch_ns"] = 1e9 * ceiling(budget, timed(4096, func() {
		dir.HolderBatch(nodeBatch, 0, held)
	}))

	// Decode + augment of one batch's payloads, inline.
	ids := sched.Batch(nil, 0, 0, 0)
	payloads := make([][]byte, len(ids))
	for i, id := range ids {
		payloads[i] = ds.Payload(id)
	}
	var decodeErr error
	layers["preproc.decode_us_per_sample"] = 1e6 / float64(len(ids)) * ceiling(budget, timed(32, func() {
		for i, id := range ids {
			t, err := preproc.Decode(payloads[i], id)
			if err != nil {
				decodeErr = err
				continue
			}
			preproc.Augment(t, seed^uint64(id))
			preproc.PutTensor(t)
		}
	}))
	if decodeErr != nil {
		return fmt.Errorf("decode ceiling: %w", decodeErr)
	}

	// The same batch through a pool of four: what one rank's
	// SubmitBatch + Completion.Wait costs when nothing else contends.
	pool, err := preproc.NewPool(4, 1024)
	if err != nil {
		return err
	}
	defer pool.Close()
	comp := preproc.GetCompletion()
	defer comp.Release()
	jobs := make([]preproc.Job, len(ids))
	for i, id := range ids {
		jobs[i] = preproc.Job{ID: id, Payload: payloads[i], Seed: seed ^ uint64(id), Comp: comp, Slot: i}
	}
	var poolErr error
	layers["preproc.pool_batch_us"] = 1e6 * ceiling(budget, timed(32, func() {
		comp.Reset(len(jobs))
		pool.SubmitBatch(jobs)
		for _, r := range comp.Wait() {
			if r.Err != nil {
				poolErr = r.Err
			}
			preproc.PutTensor(r.Tensor)
		}
	}))
	if poolErr != nil {
		return fmt.Errorf("pool ceiling: %w", poolErr)
	}

	if c.world() > 1 {
		us, err := allreduceCeiling(c.world(), budget)
		if err != nil {
			return err
		}
		layers["allreduce.average_us_8r"] = us
	}
	return nil
}

// allreduceCeiling is the data-parallel barrier alone: `world` rank
// goroutines averaging a 64-float gradient, microseconds per round.
func allreduceCeiling(world int, budget time.Duration) (float64, error) {
	ring, err := allreduce.NewRing(world)
	if err != nil {
		return 0, err
	}
	const rounds = 256
	errs := make([]error, world)
	secs := ceiling(budget, func() (float64, int) {
		var wg sync.WaitGroup
		start := time.Now()
		for rank := 0; rank < world; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				grad := make([]float64, 64)
				for i := 0; i < rounds; i++ {
					if err := ring.Average(rank, grad); err != nil {
						errs[rank] = err
						return
					}
				}
			}(rank)
		}
		wg.Wait()
		return time.Since(start).Seconds(), rounds
	})
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("allreduce ceiling: %w", err)
		}
	}
	return secs * 1e6, nil
}

// simCeilings times the decision core the simulator (and, through the
// shared packages, the runtime) is built from: access plan, Lobster
// eviction policy, distributed cache group, thread manager, and one
// whole small pipeline simulation.
func simCeilings(budget time.Duration, layers map[string]float64) error {
	const nodes, gpus, epochs = 2, 4, 6
	ds, err := rtDataset(simSeed)
	if err != nil {
		return err
	}
	sched, err := sampler.New(ds, sampler.Config{WorldSize: nodes * gpus, BatchSize: rtBatch, Seed: simSeed})
	if err != nil {
		return err
	}
	iters := sched.IterationsPerEpoch()

	var plans [nodes]*access.Plan
	var buildErr error
	layers["access.build_ms"] = 1e3 * ceiling(budget, timed(1, func() {
		for n := range plans {
			if plans[n], err = access.Build(sched, n, gpus, epochs, 0); err != nil {
				buildErr = err
			}
		}
	})) / nodes
	if buildErr != nil {
		return fmt.Errorf("access ceiling: %w", buildErr)
	}

	// One node's cache under the Lobster policy, walked through the whole
	// plan: every demanded sample is looked up and inserted on a miss,
	// then the proactive rules run at the iteration boundary — the
	// sequence pipeline and runtime both follow. Lookups and maintenance
	// are clocked separately within the same pass.
	var batch []dataset.SampleID
	var cacheErr error
	var maintainS float64
	getput := ceiling(budget, func() (float64, int) {
		c, err := cache.New(ds.TotalBytes()/3, cache.NewLobster(plans[0], cache.LobsterOptions{}))
		if err != nil {
			cacheErr = err
			return 0, 1
		}
		var lookupS float64
		calls := 0
		maintainS = 0
		for h := 0; h < epochs*iters; h++ {
			now := cache.Iter(h)
			batch = sched.NodeBatch(batch[:0], h/iters, h%iters, 0, gpus)
			t0 := time.Now()
			for _, id := range batch {
				if !c.Get(id, now) {
					c.Put(id, ds.Size(id), now)
				}
			}
			t1 := time.Now()
			c.Maintain(now)
			maintainS += time.Since(t1).Seconds()
			lookupS += t1.Sub(t0).Seconds()
			calls += len(batch)
		}
		return lookupS, calls
	})
	if cacheErr != nil {
		return fmt.Errorf("cache ceiling: %w", cacheErr)
	}
	layers["cache.lobster_getput_ns"] = 1e9 * getput
	layers["cache.maintain_us"] = 1e6 * maintainS / float64(epochs*iters)

	var groupErr error
	layers["distcache.getbatch_ns"] = 1e9 * ceiling(budget, func() (float64, int) {
		caches := make([]*cache.Cache, nodes)
		for n := range caches {
			if caches[n], err = cache.New(ds.TotalBytes()/3, cache.NewLobster(plans[n], cache.LobsterOptions{})); err != nil {
				groupErr = err
				return 0, 1
			}
		}
		g, err := distcache.NewGroup(caches, ds.Len())
		if err != nil {
			groupErr = err
			return 0, 1
		}
		var secs float64
		for h := 0; h < epochs*iters; h++ {
			now := cache.Iter(h)
			for n := 0; n < nodes; n++ {
				batch = sched.NodeBatch(batch[:0], h/iters, h%iters, n, gpus)
				t0 := time.Now()
				g.GetBatch(n, batch, ds.Size, now)
				secs += time.Since(t0).Seconds()
				g.Maintain(n, now)
			}
		}
		return secs, epochs * iters * nodes
	})
	if groupErr != nil {
		return fmt.Errorf("distcache ceiling: %w", groupErr)
	}

	// The thread manager's per-iteration decision for one 8-GPU node whose
	// GPUs see different tier mixes (so the straggler path runs), with the
	// portfolio fitted the way runtime.Run fits it.
	const threads = 24
	truth := preproc.DefaultModel()
	portfolio, err := perfmodel.FitPortfolio(nil, []int64{16 << 10, 64 << 10, 105 << 10, 512 << 10}, threads, 6,
		func(size int64, n int) float64 { return truth.Time(size, n) })
	if err != nil {
		return err
	}
	model, err := cluster.ModelByName("resnet50")
	if err != nil {
		return err
	}
	mgr, err := threadmgr.New(threadmgr.Config{
		Hierarchy: tier.ThetaGPULike(), Portfolio: portfolio, TotalThreads: threads, Tau: model.IterTime * 0.05,
	})
	if err != nil {
		return err
	}
	demands := make([]threadmgr.GPUDemand, 8)
	for j := range demands {
		const sample = 105 << 10
		pfsOps := 4 * j // GPU 0 all local ... GPU 7 mostly PFS
		demands[j] = threadmgr.GPUDemand{
			Placement: perfmodel.BatchPlacement{
				LocalOps: model.BatchSize - pfsOps, LocalBytes: int64(model.BatchSize-pfsOps) * sample,
				PFSOps: pfsOps, PFSBytes: int64(pfsOps) * sample,
			},
			QueueLen: model.BatchSize, PreprocBytes: int64(model.BatchSize) * sample, PreprocCount: model.BatchSize,
		}
	}
	layers["threadmgr.decide_us"] = 1e6 * ceiling(budget, timed(64, func() {
		mgr.Decide(demands, model.IterTime, 1)
	}))

	// One whole simulation, 8 nodes x 8 GPUs, per simulated iteration.
	spec := dataset.ImageNet22K(dataset.ScaleTiny, simSeed)
	simDS, err := dataset.Generate(spec)
	if err != nil {
		return err
	}
	cfg := pipeline.Config{
		Topology: cluster.ThetaGPULike(8, simDS.TotalBytes()*40/1331),
		Model:    model, Dataset: simDS, Epochs: 4, Seed: simSeed, Strategy: loader.Lobster(),
	}
	var runErr error
	layers["pipeline.us_per_iter"] = 1e6 * ceiling(budget, func() (float64, int) {
		start := time.Now()
		res, err := pipeline.Run(cfg)
		if err != nil {
			runErr = err
			return 0, 1
		}
		return time.Since(start).Seconds(), cfg.Epochs * res.IterationsPerEpoch
	})
	if runErr != nil {
		return fmt.Errorf("pipeline ceiling: %w", runErr)
	}
	return nil
}

// kvCeilings is the wire floor: one client, one call in flight, on keys
// it has just written so every read is a hit.
func kvCeilings(t *kvTier, budget time.Duration, layers map[string]float64) error {
	hot := t.keys[:2*kvWindow]
	vals := make([][]byte, len(hot))
	for i := range hot {
		vals[i] = t.ds.Payload(dataset.SampleID(i))
	}
	if err := t.cluster.MultiPut(hot, vals); err != nil {
		return fmt.Errorf("kv ceiling: %w", err)
	}
	var opErr error
	keep := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}
	next := 0
	layers["kvstore.get_rtt_us"] = 1e6 * ceiling(budget, timed(256, func() {
		_, hit, err := t.cluster.Get(hot[next%len(hot)])
		next++
		keep(err)
		if !hit {
			keep(fmt.Errorf("hot key missed"))
		}
	}))
	layers["kvstore.multiget32_us"] = 1e6 * ceiling(budget, timed(64, func() {
		lo := next % kvWindow
		next++
		_, err := t.cluster.MultiGet(hot[lo : lo+kvWindow])
		keep(err)
	}))
	layers["kvstore.put_us"] = 1e6 * ceiling(budget, timed(256, func() {
		i := next % len(hot)
		next++
		keep(t.cluster.Put(hot[i], vals[i]))
	}))
	if opErr != nil {
		return fmt.Errorf("kv ceiling: %w", opErr)
	}
	return nil
}
