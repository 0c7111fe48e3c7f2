package main

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tier"
)

// rtConfig is one live-runtime workload: the topology and the time
// scale that decide whether the software path or the modeled I/O is on
// the critical path. Everything else is shared (options).
type rtConfig struct {
	nodes, gpus int
	timeScale   float64
	// epochsPerS is about what the workload reaches on the 2-core CI
	// box. It sizes the fixed-work runs of the traced pass, and a timed
	// run plans three times as many epochs as it should need, so that
	// the clock and not the plan ends it.
	epochsPerS float64
	// whatIfs adds the three one-layer-made-free runs to the traced pass.
	whatIfs bool
}

var rtConfigs = map[string]rtConfig{
	"rt-1r-sw": {nodes: 1, gpus: 1, timeScale: 0.001, epochsPerS: 6},
	"rt-8r-sw": {nodes: 2, gpus: 4, timeScale: 0.001, epochsPerS: 10},
	"rt-8r-io": {nodes: 2, gpus: 4, timeScale: 0.05, epochsPerS: 4.5, whatIfs: true},
}

const (
	rtSamples = 4096
	rtBatch   = 8
)

func (c rtConfig) world() int { return c.nodes * c.gpus }

func rtDataset(seed uint64) (*dataset.Dataset, error) {
	return dataset.Generate(dataset.Spec{
		Name: "rtbench", NumSamples: rtSamples, MeanSize: 8 << 10, SigmaLog: 0.3,
		MinSize: 1 << 10, Classes: 4, Seed: seed,
	})
}

func (c rtConfig) options(ds *dataset.Dataset, seed uint64, epochs int) runtime.Options {
	return runtime.Options{
		Topology: cluster.Topology{
			Nodes: c.nodes, GPUsPerNode: c.gpus, CPUThreads: 8,
			CacheBytes: ds.TotalBytes() / 3, NUMADomains: 2, Hierarchy: tier.ThetaGPULike(),
		},
		Dataset:   ds,
		Model:     cluster.DNNModel{Name: "toy", IterTime: 0.004, BatchSize: rtBatch, TargetAccuracy: 0.7, ConvergeEpochs: 10},
		Epochs:    epochs,
		Seed:      seed,
		Strategy:  loader.Lobster(),
		TimeScale: c.timeScale,
	}
}

// coldEpoch is one set-up cycle: generate the dataset, build the
// runtime and run the cold-cache first epoch to completion. One epoch
// is a fixed amount of work, so its DataFold is a deterministic output
// the goldens can pin (a timed run's fold depends on where the clock
// cut it).
func (c rtConfig) coldEpoch(seed uint64, reg *obs.Registry, ring *obs.TraceRing) (secs float64, st *runtime.Stats, err error) {
	start := time.Now()
	ds, err := rtDataset(seed)
	if err != nil {
		return 0, nil, err
	}
	opts := c.options(ds, seed, 1)
	opts.Obs, opts.Trace = reg, ring
	st, err = runtime.Run(opts)
	if err != nil {
		return 0, st, fmt.Errorf("cold epoch: %w", err)
	}
	return time.Since(start).Seconds(), st, nil
}

// rtRun is what one timed run measured over its steady state: from the
// end of epoch 0 to the last iteration that finished inside --seconds.
// The steady state is cut into windows; the headline numbers are taken
// from the better tenth of them (see windowed in stats.go).
type rtRun struct {
	stats    *runtime.Stats
	samples  int       // delivered to ranks in the steady state
	seconds  float64   // steady-state length
	stepMs   []float64 // gaps between consecutive iteration ends, in order
	windows  windowed
	mallocs  uint64
	gcPauseS float64
}

func (r *rtRun) samplesPerS() float64 { return r.windows.rate() }

// timedRun measures the runtime's steady state. With seconds > 0 (the
// end-to-end pass) it runs for that long after epoch 0 and cancels; with
// seconds == 0 (the traced pass and the what-ifs) it runs `epochs` to
// completion, a fixed amount of work, so that summed per-layer seconds
// compare across commits. Iteration ends are stamped from
// Options.OnProgress, which the barrier's last arriver calls once per
// global iteration; the steady state opens at the stamp that ends epoch
// 0. CPU time is read from inside the callback at every window edge, so
// each window's CPU covers exactly its stamped iterations.
func (c rtConfig) timedRun(ds *dataset.Dataset, seed uint64, epochs int, seconds float64, window time.Duration, mutate func(*runtime.Options)) (*rtRun, error) {
	if seconds > 0 {
		epochs = int(seconds*3*c.epochsPerS) + 2
	}
	opts := c.options(ds, seed, epochs)
	if mutate != nil {
		mutate(&opts)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		base       = time.Now()
		stamps     []time.Duration // iteration ends since base
		edges      []int           // stamps index of each window edge
		edgeCPU    []float64       // process CPU seconds at each edge
		edgeErr    error
		mem0, mem1 goruntime.MemStats
		closed     bool
		limit      = time.Duration(seconds * float64(time.Second))
	)
	edge := func() {
		cpu, err := cpuSeconds()
		if err != nil && edgeErr == nil {
			edgeErr = err
		}
		edges, edgeCPU = append(edges, len(stamps)-1), append(edgeCPU, cpu)
	}
	opts.OnProgress = func(p runtime.Progress) {
		if closed {
			return
		}
		if stamps == nil {
			if p.Iteration < p.TotalIters/epochs {
				return
			}
			stamps = make([]time.Duration, 0, p.TotalIters)
			goruntime.ReadMemStats(&mem0)
		}
		now := time.Since(base)
		stamps = append(stamps, now)
		closed = (seconds > 0 && now-stamps[0] >= limit) || p.Iteration == p.TotalIters
		if len(edges) == 0 || closed || now-stamps[edges[len(edges)-1]] >= window {
			edge()
		}
		if closed {
			goruntime.ReadMemStats(&mem1)
			if seconds > 0 {
				cancel()
			}
		}
	}
	st, err := runtime.RunContext(ctx, opts)
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("timed run: %w", err)
	}
	if edgeErr != nil {
		return nil, edgeErr
	}
	if len(stamps) < 2 {
		return nil, fmt.Errorf("timed run: %d iterations after epoch 0, need at least 2", len(stamps))
	}
	gaps := make([]float64, len(stamps)-1)
	for i := range gaps {
		gaps[i] = (stamps[i+1] - stamps[i]).Seconds() * 1e3
	}
	perStep := c.world() * rtBatch
	run := &rtRun{
		stats:    st,
		samples:  len(gaps) * perStep,
		seconds:  (stamps[len(stamps)-1] - stamps[0]).Seconds(),
		mallocs:  mem1.Mallocs - mem0.Mallocs,
		gcPauseS: float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e9,
	}
	for i := 1; i < len(edges); i++ {
		lo, hi := edges[i-1], edges[i]
		run.windows.add((hi-lo)*perStep, (stamps[hi] - stamps[lo]).Seconds(), edgeCPU[i]-edgeCPU[i-1], median(sortedCopy(gaps[lo:hi])))
	}
	run.stepMs = gaps
	return run, nil
}

// verified counts a finished run's samples against what its iterations
// should have delivered: every sample the ranks consumed must have
// passed payload verification.
func (c rtConfig) verified(st *runtime.Stats) (attempted, failed int) {
	attempted = st.Iterations * c.world() * rtBatch
	failed = attempted - int(st.SamplesVerified)
	if failed < 0 {
		failed = attempted
	}
	return attempted, failed
}

// tally adds a finished run's verified and unverified samples to res.
func (c rtConfig) tally(res *result, st *runtime.Stats) {
	attempted, failed := c.verified(st)
	res.attempted += attempted
	res.failed += failed
}

// coldEpochs runs n identical set-up cycles (plus, when instrumented, one
// more with the registry and trace ring attached) and holds their
// outputs against each other and the golden: every cycle must deliver
// and verify the whole epoch, and all folds must be equal — repeated,
// and traced against untraced.
func (c rtConfig) coldEpochs(name string, a runArgs, g *goldens, res *result, n int, instrumented bool) (secs []float64, err error) {
	var fold uint64
	for i := 0; i < n || (instrumented && i == n); i++ {
		var reg *obs.Registry
		var ring *obs.TraceRing
		if i == n {
			reg, ring = obs.NewRegistry(), obs.NewTraceRing(traceEvents)
		}
		s, st, err := c.coldEpoch(a.seed, reg, ring)
		if err != nil {
			return nil, err
		}
		attempted, failed := c.verified(st)
		if i == 0 {
			fold = st.DataFold
			if err := g.checkFold(name, a.seed, fold, a.update); err != nil {
				res.problem("%v", err)
				failed = attempted
			}
		} else if st.DataFold != fold {
			res.problem("cold epoch %d (instrumented=%v) DataFold %d, first cycle %d", i, reg != nil, st.DataFold, fold)
			failed = attempted
		}
		res.attempted += attempted
		res.failed += failed
		if reg == nil {
			secs = append(secs, s)
		}
	}
	return secs, nil
}

// runRT is one live-runtime workload: either the end-to-end pass or the
// traced pass.
func runRT(name string, a runArgs, g *goldens) (*result, error) {
	c := rtConfigs[name]
	res := &result{layers: map[string]float64{}}
	if a.traced {
		return res, c.tracedPass(name, a, g, res)
	}
	setups, err := c.coldEpochs(name, a, g, res, a.cycles(), false)
	if err != nil {
		return nil, err
	}
	ds, err := rtDataset(a.seed)
	if err != nil {
		return nil, err
	}
	run, err := c.timedRun(ds, a.seed, 0, a.seconds, a.window(), nil)
	if err != nil {
		return nil, err
	}
	c.tally(res, run.stats)
	steps := len(run.stepMs)
	res.rows = []row{
		{Name: "samples_per_s", Unit: "1/s", Value: run.samplesPerS(), N: run.windows.n(), Slot: "throughput_per_s"},
		{Name: "step_p50_ms", Unit: "ms", Value: run.windows.latency(), N: run.windows.n(), Slot: "op_p50_ms"},
		{Name: "step_p99_ms", Unit: "ms", Value: res.tail("step_p99_ms", run.stepMs, 99), N: steps, Slot: "op_p99_ms"},
		{Name: "cpu_ms_per_ksample", Unit: "ms", Value: run.windows.cpuPerOp() * 1e6, N: run.windows.n(), Slot: "cpu_ms_per_kop"},
		{Name: "samples_per_s_mean", Unit: "1/s", Value: float64(run.samples) / run.seconds},
		{Name: "step_p50_ms_all", Unit: "ms", Value: median(sortedCopy(run.stepMs)), N: steps},
		{Name: "steady_s", Unit: "s", Value: run.seconds},
		{Name: "cache_hit_ratio", Unit: "share", Value: run.stats.HitRatio()},
		{Name: "allocs_per_sample", Unit: "count", Value: float64(run.mallocs) / float64(run.samples)},
	}
	return res, res.finish(setups)
}

// rtTotals adds up runs of the same fixed work.
type rtTotals struct {
	samples  int
	rates    []float64 // each run's samplesPerS
	mallocs  uint64
	gcPauseS float64
	stats    runtime.Stats
}

func (t *rtTotals) add(r *rtRun) {
	t.samples += r.samples
	t.rates = append(t.rates, r.samplesPerS())
	t.mallocs += r.mallocs
	t.gcPauseS += r.gcPauseS
	t.stats.CacheHits += r.stats.CacheHits
	t.stats.CacheMisses += r.stats.CacheMisses
	t.stats.RemoteHits += r.stats.RemoteHits
	t.stats.PFSReads += r.stats.PFSReads
	t.stats.PFSRetries += r.stats.PFSRetries
	t.stats.Prefetched += r.stats.Prefetched
	t.stats.Failovers += r.stats.Failovers
}

func (t *rtTotals) samplesPerS() float64 { return mean(t.rates) }

// stallCauses are the ledger's attribution buckets, in the order the
// runtime names them.
var stallCauses = []string{"local_hit", "peer_fetch", "pfs", "decode_wait", "queue_wait", "recovery"}

// rtSeries maps a per-layer metric to the registry series whose sum it
// is.
var rtSeries = map[string]string{
	"runtime.load_s":  "lobster_runtime_load_seconds_sum",
	"runtime.train_s": "lobster_runtime_train_seconds_sum",
	"preproc.job_s":   "lobster_preproc_job_seconds_sum",
	"preproc.jobs":    "lobster_preproc_jobs_total",
}

func init() {
	for _, cause := range stallCauses {
		rtSeries["runtime.stall_"+cause+"_s"] = "lobster_runtime_stall_" + cause + "_seconds_sum"
	}
}

// tracedPass reruns the workload as fixed work — the same number of
// epochs every time — plain and with the runtime's own instrumentation
// on, and reads the per-layer numbers: ledger and stage sums from the
// registry, counters from runtime.Stats, allocator deltas from the plain
// runs, the stages' isolated ceilings, and (rt-8r-io) the gain from
// making one layer free.
func (c rtConfig) tracedPass(name string, a runArgs, g *goldens, res *result) error {
	if _, err := c.coldEpochs(name, a, g, res, a.cycles(), true); err != nil {
		return err
	}
	ds, err := rtDataset(a.seed)
	if err != nil {
		return err
	}
	epochs := int(c.epochsPerS*a.seconds/10+0.5) + 2
	run := func(mutate func(*runtime.Options)) (*rtRun, error) {
		r, err := c.timedRun(ds, a.seed, epochs, 0, a.window(), mutate)
		if err == nil {
			c.tally(res, r.stats)
		}
		return r, err
	}

	// Plain, traced, traced, plain: a process speeds up as its heap and
	// pools settle, and this order charges that drift to both sides
	// equally, so the overhead figure is not an artefact of which ran
	// first.
	l := res.layers
	var plain, traced rtTotals
	var ring *obs.TraceRing
	var rankStall float64
	for _, on := range []bool{false, true, true, false} {
		if !on {
			r, err := run(nil)
			if err != nil {
				return err
			}
			plain.add(r)
			continue
		}
		reg := obs.NewRegistry()
		ring = obs.NewTraceRing(traceEvents)
		r, err := run(func(o *runtime.Options) { o.Obs, o.Trace = reg, ring })
		if err != nil {
			return err
		}
		traced.add(r)
		m, err := scrape(reg)
		if err != nil {
			return err
		}
		for layer, series := range rtSeries {
			l[layer] += m.Sum(series, nil)
		}
		rankStall += m.Sum("lobster_runtime_stall_seconds_sum", nil)
	}
	if err := writeTrace(ring, a.outDir, name); err != nil {
		return err
	}

	var ledger, loadSide float64
	for _, cause := range stallCauses {
		s := l["runtime.stall_"+cause+"_s"]
		ledger += s
		if cause != "decode_wait" && cause != "queue_wait" {
			loadSide += s
		}
	}
	l["runtime.stall_total_s"] = ledger
	// Conservation: the ledger charges every nanosecond of a demand load
	// to one storage-facing cause, and the load histogram times the same
	// loads whole, so the two must agree; what the causes miss of the
	// load time is unattributed.
	l["runtime.unattributed_share"] = (l["runtime.load_s"] - loadSide) / l["runtime.load_s"]
	if u := l["runtime.unattributed_share"]; u < -0.05 || u > 0.05 {
		res.note("ledger does not reconcile: storage-facing causes %.3f s against %.3f s of load time", loadSide, l["runtime.load_s"])
	}
	res.note("ranks stalled %.3f s (lobster_runtime_stall_seconds); ledger %.3f s across concurrent loads, by cause:", rankStall, ledger)
	for _, cause := range stallCauses {
		res.note("  %-12s %6.3f of stall_total_s", cause, l["runtime.stall_"+cause+"_s"]/ledger)
	}

	st := &traced.stats
	l["runtime.cache_hit_ratio"] = st.HitRatio()
	l["runtime.remote_hits"] = float64(st.RemoteHits)
	l["runtime.pfs_reads"] = float64(st.PFSReads)
	l["runtime.pfs_retries"] = float64(st.PFSRetries)
	l["runtime.prefetched"] = float64(st.Prefetched)
	if st.PFSReads > 0 {
		l["runtime.prefetch_share"] = float64(st.Prefetched) / float64(st.PFSReads)
	}
	l["runtime.failovers"] = float64(st.Failovers)
	l["runtime.allocs_per_sample"] = float64(plain.mallocs) / float64(plain.samples)
	l["runtime.gc_pause_ms"] = plain.gcPauseS * 1e3
	l["obs.enabled_overhead_pct"] = (1 - traced.samplesPerS()/plain.samplesPerS()) * 100

	if c.whatIfs {
		base := plain.samplesPerS()
		free := tier.Curve{PeakMBps: 1e9, HalfThreads: 1, OpLatency: 0}
		for _, w := range []struct {
			layer  string
			mutate func(*runtime.Options)
		}{
			{"pfs", func(o *runtime.Options) { o.Topology.Hierarchy.PFS, o.Topology.Hierarchy.PFSGlobalMBps = free, 1e9 }},
			{"remote", func(o *runtime.Options) { o.Topology.Hierarchy.Remote = free }},
			{"allreduce", func(o *runtime.Options) { o.GradientSize = -1 }},
		} {
			r, err := run(w.mutate)
			if err != nil {
				return fmt.Errorf("what-if %s free: %w", w.layer, err)
			}
			l["whatif."+w.layer+"_free_gain_pct"] = (r.samplesPerS() - base) / base * 100
		}
	}
	return rtCeilings(c, ds, a.seed, ceilingBudget(a.seconds), l)
}
