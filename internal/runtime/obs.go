package runtime

import (
	"math"
	"runtime/metrics"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/preproc"
)

// runtimeObs is one run's observability wiring: the latency histograms
// fed from the iteration hot paths, the trace tracks the per-stage
// spans land on, and (at registration time only) the scrape-time
// callbacks that surface the runtime's existing atomics as gauges and
// counters. Built by newRuntimeObs when Options.Obs or Options.Trace is
// set; a nil *runtimeObs means the run is un-instrumented and every hot
// path pays exactly one pointer check.
//
// Per-stage span layout (what a /trace.json dump shows in Perfetto):
//
//	rank<r>                 "stall" (from the release until the batch
//	                        is whole) and "train" (the booked compute,
//	                        from then) spans
//	rank<r>/stalls          per-cause attribution spans, one per cause
//	                        per iteration, flushed at the barrier
//	                        (names from stallCauseNames, DESIGN.md §14)
//	node<n>/gpu<j>/loader<k> "load" spans, one per sample a loading worker
//	                        materialized (the misses at dispatch; hits are
//	                        leased by the rank and charged to local_hit)
//	node<n>/preproc/worker<k> "preproc" spans (via preproc.Instruments)
//	node<n>/prefetch-ledger per-cause spans (cat "prefetch") of what the
//	                        node's prefetch loop and idle loading
//	                        workers spent ahead of demand, flushed at
//	                        the barrier: at most three per iteration
//	node<n>/controller      "thread_resize" instants (decision events)
//	barrier                 one "balanced" or "imbalanced" instant per
//	                        iteration (plan.Imbalance's verdict), with
//	                        its epoch and critical rank
type runtimeObs struct {
	reg   *obs.Registry
	trace *obs.TraceRing

	// Per-rank GPU-loop instruments, indexed by global rank. computeLate
	// observes how late each rank booked its compute past its start
	// (runRank): time dated away, not modeled.
	stallSeconds []*obs.Histogram
	trainSeconds []*obs.Histogram
	computeLate  []*obs.Histogram
	rankTID      []int64

	// Per-node thread-controller instant track, indexed by node.
	ctrlTID []int64

	// Stall attribution (ledger.go): per-rank accumulators, the
	// per-cause histograms ([cause][rank], empty when reg is nil) and the
	// per-rank attribution trace tracks.
	ledger     *stallLedger
	causeHists [numStallCauses][]*obs.Histogram
	ledgerTID  []int64

	// The iteration records (recordIteration). Rank r writes gpu[r]'s
	// Stall and Train before it arrives at the barrier, whose last arriver
	// reads them all. step is the training step in wall seconds;
	// imbalanced counts flagged iterations by critical rank.
	gpu           []plan.GPUIter
	records       []plan.IterRecord
	lastEnd       time.Time // the previous record's end, on the run's clock
	step          float64
	itersPerEpoch int
	imbalanced    []*obs.Counter
	barrierTID    int64

	// The prefetch side of the ledger (prefetch loops and loading workers
	// working ahead), indexed by node:
	// [cause][node] histograms (prefetchCauses only) and the per-node
	// attribution tracks.
	prefetchHists [numStallCauses][]*obs.Histogram
	prefetchTID   []int64

	// clockOvershoot is the run's model error: how much later than asked
	// each wait on the clock returned (clock.go): the barrier's train
	// wait, a read a loading worker waits for, or a prefetch loop's due
	// set.
	clockOvershoot *obs.Histogram
}

// maxRecords caps Stats.Trace, as MaxTraceIters defaults in the simulator.
const maxRecords = 4096

// newRuntimeObs builds the run's wiring; nil when the run is
// un-instrumented. reg and trace are each optional.
func newRuntimeObs(reg *obs.Registry, trace *obs.TraceRing, world, nodes, itersPerEpoch int, step float64) *runtimeObs {
	if reg == nil && trace == nil {
		return nil
	}
	ro := &runtimeObs{
		reg:          reg,
		trace:        trace,
		stallSeconds: make([]*obs.Histogram, world),
		trainSeconds: make([]*obs.Histogram, world),
		computeLate:  make([]*obs.Histogram, world),
		rankTID:      make([]int64, world),
		ctrlTID:      make([]int64, nodes),
		ledger:       newStallLedger(world, nodes),
		ledgerTID:    make([]int64, world),
		prefetchTID:  make([]int64, nodes),

		gpu:           make([]plan.GPUIter, world),
		step:          step,
		itersPerEpoch: itersPerEpoch,
		imbalanced:    make([]*obs.Counter, world),
		barrierTID:    trace.NewThread("barrier"),
	}
	if reg != nil {
		for c := range ro.causeHists {
			ro.causeHists[c] = make([]*obs.Histogram, world)
		}
		for _, c := range prefetchCauses {
			ro.prefetchHists[c] = make([]*obs.Histogram, nodes)
		}
	}
	for r := 0; r < world; r++ {
		if reg != nil {
			rank := strconv.Itoa(r)
			ro.stallSeconds[r] = reg.Histogram("lobster_runtime_stall_seconds",
				"Time each GPU spent waiting for its batch past the barrier's release (data stall).",
				obs.LatencyBuckets(), "rank", rank)
			ro.trainSeconds[r] = reg.Histogram("lobster_runtime_train_seconds",
				"Modeled per-iteration compute time per GPU, as booked (the allreduce is the barrier: its time is Idle).",
				obs.LatencyBuckets(), "rank", rank)
			ro.computeLate[r] = reg.Histogram("lobster_runtime_compute_late_seconds",
				"How late each GPU booked its compute past its start (the later of the release and its batch being whole): scheduling delay dated away, not modeled.",
				obs.LatencyBuckets(), "rank", rank)
			ro.registerCauseHists(r, rank)
			ro.imbalanced[r] = reg.Counter("lobster_runtime_imbalanced_iterations_total",
				"Iterations whose per-rank stall spread exceeded one training step, by critical rank (the rank that stalled longest).",
				"rank", rank)
		}
		ro.rankTID[r] = trace.NewThread("rank" + strconv.Itoa(r))
		ro.ledgerTID[r] = trace.NewThread("rank" + strconv.Itoa(r) + "/stalls")
	}
	for n := 0; n < nodes; n++ {
		node := strconv.Itoa(n)
		ro.ctrlTID[n] = trace.NewThread("node" + node + "/controller")
		ro.prefetchTID[n] = trace.NewThread("node" + node + "/prefetch-ledger")
		if reg != nil {
			ro.registerPrefetchHists(n, node)
		}
	}
	if reg != nil {
		ro.clockOvershoot = reg.Histogram("lobster_runtime_clock_overshoot_seconds",
			"How late each wait on the run's clock returned, past its deadline: the barrier's one train wait per iteration, a storage or peer read a loading worker waits for, or one due set of a node's prefetch loop.",
			obs.LatencyBuckets())
		registerSchedMetrics(reg)
	}
	return ro
}

// registerSchedMetrics registers scrape-time series over the Go
// runtime's own scheduler and lock accounting (runtime/metrics), which
// cover the whole process since it started: how long runnable goroutines
// waited for a CPU, and how long goroutines were blocked on sync.Mutex
// and sync.RWMutex.
func registerSchedMetrics(reg *obs.Registry) {
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.99", 0.99}} {
		q := q
		reg.GaugeFunc("lobster_go_sched_latency_seconds",
			"Quantile of the time runnable goroutines waited for a CPU, over the process's life (runtime/metrics /sched/latencies:seconds).",
			func() float64 { return schedLatency(q.q) }, "quantile", q.label)
	}
	reg.CounterFunc("lobster_go_mutex_wait_seconds_total",
		"Time goroutines spent blocked on a sync.Mutex or sync.RWMutex, summed (runtime/metrics /sync/mutex/wait/total:seconds).",
		mutexWait)
}

// schedLatency is the q-quantile of /sched/latencies:seconds, the upper
// bound of the bucket the quantile falls in; 0 before any observation.
func schedLatency(q float64) float64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := s[0].Value.Float64Histogram()
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if c > 0 && seen >= rank {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return 0
}

// mutexWait is /sync/mutex/wait/total:seconds; 0 where the Go runtime
// does not report it.
func mutexWait() float64 {
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// registerCauseHists registers rank r's six per-cause stall histograms.
// One literal call per cause: registration names must be compile-time
// constants (tools/lint obsnaming).
func (ro *runtimeObs) registerCauseHists(r int, rank string) {
	b := obs.LatencyBuckets()
	ro.causeHists[causeLocalHit][r] = ro.reg.Histogram("lobster_runtime_stall_local_hit_seconds",
		"Stall time attributed to serving samples from the local cache, per iteration and rank.",
		b, "rank", rank)
	ro.causeHists[causePeerFetch][r] = ro.reg.Histogram("lobster_runtime_stall_peer_fetch_seconds",
		"Stall time attributed to peer-cache fetches (delivered or failed), per iteration and rank.",
		b, "rank", rank)
	ro.causeHists[causePFS][r] = ro.reg.Histogram("lobster_runtime_stall_pfs_seconds",
		"Stall time attributed to normal-path demand PFS reads (no peer holder), per iteration and rank.",
		b, "rank", rank)
	ro.causeHists[causeDecodeWait][r] = ro.reg.Histogram("lobster_runtime_stall_decode_wait_seconds",
		"Stall time attributed to decode jobs waiting in the preprocessing queue, per iteration and rank.",
		b, "rank", rank)
	ro.causeHists[causeQueueWait][r] = ro.reg.Histogram("lobster_runtime_stall_queue_wait_seconds",
		"Stall time attributed to load requests waiting in per-GPU queues, per iteration and rank.",
		b, "rank", rank)
	ro.causeHists[causeRecovery][r] = ro.reg.Histogram("lobster_runtime_stall_recovery_seconds",
		"Stall time attributed to fallback PFS reads after a broken peer promise (failover events), per iteration and rank.",
		b, "rank", rank)
}

// registerPrefetchHists registers node n's per-cause prefetch histograms,
// one per prefetchCauses entry. Literal names, like registerCauseHists.
func (ro *runtimeObs) registerPrefetchHists(n int, node string) {
	b := obs.LatencyBuckets()
	ro.prefetchHists[causePeerFetch][n] = ro.reg.Histogram("lobster_runtime_prefetch_peer_fetch_seconds",
		"Time prefetch loops and idle loading workers spent in peer-cache fetches ahead of demand (delivered or failed), per iteration and node.",
		b, "node", node)
	ro.prefetchHists[causePFS][n] = ro.reg.Histogram("lobster_runtime_prefetch_pfs_seconds",
		"Time prefetch loops and idle loading workers spent in normal-path PFS reads ahead of demand, per iteration and node.",
		b, "node", node)
	ro.prefetchHists[causeRecovery][n] = ro.reg.Histogram("lobster_runtime_prefetch_recovery_seconds",
		"Time prefetch loops and idle loading workers spent in fallback PFS reads after a broken peer promise (failover events), per iteration and node.",
		b, "node", node)
}

// clockOvershootHist is the histogram the run's clock records into; nil
// (a histogram that is never on) for an un-instrumented run.
func (ro *runtimeObs) clockOvershootHist() *obs.Histogram {
	if ro == nil {
		return nil
	}
	return ro.clockOvershoot
}

// prefetchRow returns the ledger row node n's staging charges (the
// prefetch loop's slots and stageOne), or nil when attribution is not
// being recorded (see ledgerOn).
func (ro *runtimeObs) prefetchRow(n int) *stallRow {
	led := ro.ledgerOn()
	if led == nil {
		return nil
	}
	return &led.prefetch[n]
}

// ledgerOn returns the run's stall ledger when attribution is being
// recorded — a trace ring is attached or the registry is enabled — and
// nil otherwise (including on a nil *runtimeObs), so disabled runs pay
// one pointer check and no clock reads.
func (ro *runtimeObs) ledgerOn() *stallLedger {
	if ro == nil || ro.trace == nil && !ro.stallSeconds[0].On() {
		return nil
	}
	return ro.ledger
}

// flushLedger drains every rank's attribution row for the iteration the
// barrier is completing: per-cause histograms observe the totals,
// per-cause spans land on the rank's stall track (backdated so the span
// ends at the flush), and the sums become the iteration record's Load
// and Preproc (see recordIteration). Runs on the barrier's last arriver
// while all ranks wait, before the train wait (every rank has consumed
// its batch), and drains only `completed`'s parity — the next
// iteration's loads are already charging the other one (see
// stallLedger). The per-node prefetch rows drain in the same pass, into
// cat "prefetch" spans and the lobster_runtime_prefetch_<cause>_seconds
// histograms: what staging ahead of demand cost while the ranks were on
// `completed`.
func (ro *runtimeObs) flushLedger(completed int, nodes []*nodeRuntime) {
	led := ro.ledgerOn()
	if led == nil {
		return
	}
	end := time.Now()
	var durs [numStallCauses]time.Duration
	for r := range led.rows {
		led.rows[r][completed&1].drain(&durs)
		var loadSide time.Duration
		for c, d := range durs {
			if d == 0 {
				continue
			}
			if loadSideCause(stallCause(c)) {
				loadSide += d
			}
			if ro.causeHists[c] != nil {
				ro.causeHists[c][r].Observe(d.Seconds())
			}
			if ro.trace != nil {
				ro.trace.SpanArgs(stallCauseNames[c], "stall", ro.ledgerTID[r],
					end.Add(-d), d, "iter", int64(completed), "rank", int64(r))
			}
		}
		ro.gpu[r].Load, ro.gpu[r].Preproc = loadSide.Seconds(), durs[causeDecodeWait].Seconds()
	}
	for n := range led.prefetch {
		led.prefetch[n].drain(&durs)
		for c, d := range durs {
			if d == 0 {
				continue
			}
			if ro.prefetchHists[c] != nil {
				ro.prefetchHists[c][n].Observe(d.Seconds())
			}
			if ro.trace != nil {
				ro.trace.SpanArgs(stallCauseNames[c], "prefetch", ro.prefetchTID[n],
					end.Add(-d), d, "iter", int64(completed), "node", int64(n))
			}
		}
	}
}

// recordIteration closes iteration `completed`'s record at end, on the
// run's clock after the barrier's train wait; nothing when attribution
// is not being recorded (see ledgerOn). Load (the loadSideCause causes)
// and Preproc (decode_wait) are ledger sums over concurrent loads and
// decode jobs, so they can exceed wall time; Stall runs from the release
// to the compute's start and Train is the booked compute alone, so Idle,
// what BatchTime (record to record, each between a train wait and the
// next release) leaves after Stall and Train, is the rank's wait at the
// barrier from its own deadline. Threads are the pool sizes in force.
// plan.Imbalance's verdict goes to the counter and the barrier track.
func (ro *runtimeObs) recordIteration(completed int, nodes []*nodeRuntime, end time.Time) {
	if ro.ledgerOn() == nil {
		return
	}
	batch := end.Sub(ro.lastEnd).Seconds()
	ro.lastEnd = end
	imbalanced, critical := plan.Imbalance(ro.gpu, ro.step)
	verdict := "balanced"
	if imbalanced {
		verdict = "imbalanced"
		ro.imbalanced[critical].Inc()
	}
	ro.trace.Instant(verdict, "barrier", ro.barrierTID, "epoch", int64(completed/ro.itersPerEpoch), "critical_rank", int64(critical))
	if len(ro.records) == maxRecords {
		return
	}
	threads := make([]plan.NodeThreads, len(nodes))
	for n, node := range nodes {
		threads[n] = node.threads()
	}
	ro.records = append(ro.records, plan.NewIterRecord(completed/ro.itersPerEpoch, completed%ro.itersPerEpoch, batch, ro.gpu, threads))
}

// instrumentNode registers one node's instruments: the load-latency
// histogram fed from the demand path, scrape-time gauges over the
// queues and pools, scrape-time counters over the node's existing
// atomics, and the preprocessing pool's own instruments. Must run
// before the node receives load requests (the histogram field is
// published to the loading workers by the request channel send).
func (ro *runtimeObs) instrumentNode(node *nodeRuntime) {
	n := strconv.Itoa(node.node)
	if ro.trace != nil || ro.reg != nil {
		ins := &preproc.Instruments{Trace: ro.trace, TraceLabel: "node" + n + "/preproc"}
		if ro.reg != nil {
			ins.JobSeconds = ro.reg.Histogram("lobster_preproc_job_seconds",
				"Decode+augment time per preprocessing job.",
				obs.LatencyBuckets(), "node", n)
		}
		ins.QueueWait = func(ctx obs.TraceCtx, wait time.Duration) {
			ro.ledger.add(ctx, causeDecodeWait, wait)
		}
		node.pre.SetInstruments(ins)
	}
	if ro.reg == nil {
		return
	}
	node.loadHist = ro.reg.Histogram("lobster_runtime_load_seconds",
		"Time to materialize one sample: a hit's share of its dispatch's lease pass, or a miss's read from a peer cache or the PFS.",
		obs.LatencyBuckets(), "node", n)

	for j, q := range node.queues {
		q := q
		g := strconv.Itoa(j)
		ro.reg.GaugeFunc("lobster_runtime_queue_depth",
			"Samples pending in each per-GPU loading queue: the misses of the dispatched batches not yet loaded (cache hits go straight to the decode pool).",
			func() float64 { return float64(q.pending.Load()) }, "node", n, "gpu", g)
		ro.reg.GaugeFunc("lobster_runtime_load_threads",
			"Loading workers currently assigned to each per-GPU queue.",
			func() float64 { return float64(q.crew.Size()) }, "node", n, "gpu", g)
	}
	pre := node.pre
	ro.reg.GaugeFunc("lobster_preproc_threads",
		"Preprocessing workers currently assigned per node.",
		func() float64 { return float64(pre.Workers()) }, "node", n)
	ro.reg.GaugeFunc("lobster_preproc_queue_depth",
		"Jobs waiting in the preprocessing queue.",
		func() float64 { return float64(pre.QueueLen()) }, "node", n)
	ro.reg.CounterFunc("lobster_preproc_jobs_total",
		"Preprocessing jobs completed.",
		func() float64 { return float64(pre.Processed()) }, "node", n)

	nc := node.cache
	ro.reg.CounterFunc("lobster_runtime_cache_hits_total",
		"Local cache hits on the demand path.",
		func() float64 { return float64(nc.stats().Hits) }, "node", n)
	ro.reg.CounterFunc("lobster_runtime_cache_misses_total",
		"Local cache misses on the demand path.",
		func() float64 { return float64(nc.stats().Misses) }, "node", n)
	ro.reg.CounterFunc("lobster_runtime_remote_hits_total",
		"Misses served by a peer's cache.",
		func() float64 { return float64(node.remoteHits.Load()) }, "node", n)
	ro.reg.CounterFunc("lobster_runtime_pfs_reads_total",
		"Samples read from the parallel file system.",
		func() float64 { return float64(node.pfsReads.Load()) }, "node", n)
	ro.reg.CounterFunc("lobster_runtime_pfs_retries_total",
		"Transient PFS read failures retried.",
		func() float64 { return float64(node.pfsRetries.Load()) }, "node", n)
	ro.reg.CounterFunc("lobster_runtime_prefetched_total",
		"Samples staged into the cache ahead of demand, by prefetch loops and by idle loading workers.",
		func() float64 { return float64(node.prefetched.Load()) }, "node", n)
	ro.reg.CounterFunc("lobster_runtime_workahead_total",
		"Samples staged by loading workers while their queue was empty (a subset of prefetched_total; dynamic strategies only).",
		func() float64 { return float64(node.stagedByLoaders.Load()) }, "node", n)
	ro.reg.CounterFunc("lobster_runtime_prefetch_late_total",
		"Demand misses on a sample a prefetch loop or an idle loading worker had in flight (prefetched too late).",
		func() float64 { return float64(node.prefetchLate.Load()) }, "node", n)
	ro.reg.CounterFunc("lobster_runtime_staged_evicted_total",
		"Staged samples the node cache evicted before any rank or peer read them (prefetched for nothing).",
		func() float64 { return float64(nc.stagedEvicted.Load()) }, "node", n)
	if feed := node.feed; feed != nil {
		ro.reg.CounterFunc("lobster_runtime_prefetch_pauses_total",
			"Times a cache refusal paused the node's prefetch feed until the next iteration.",
			func() float64 { return float64(feed.pauseCount()) }, "node", n)
		slots := float64(len(node.slots))
		ro.reg.GaugeFunc("lobster_runtime_prefetch_slots",
			"Read slots of the node's prefetch loop: reads it keeps in flight.",
			func() float64 { return slots }, "node", n)
	}
	ro.reg.CounterFunc("lobster_runtime_failover_total",
		"Peer reads that fell over to the PFS because the peer broke its promise (down, failed fetch, or a copy that fails verification).",
		func() float64 { return float64(node.failovers.Load()) }, "node", n)
	ro.reg.CounterFunc("lobster_runtime_eviction_races_total",
		"Peer reads that found the sample evicted after the directory lookup and read the PFS instead.",
		func() float64 { return float64(node.evictionRaces.Load()) }, "node", n)
}

// gpuSpan records one GPU-loop stage ("stall" or "train"), d long from
// start, into both the histogram and the rank's trace track, and returns
// its seconds.
func (ro *runtimeObs) gpuSpan(name string, h *obs.Histogram, tid int64, iter int, start time.Time, d time.Duration) float64 {
	h.Observe(d.Seconds())
	if ro.trace != nil {
		ro.trace.SpanArgs(name, "gpu", tid, start, d, "iter", int64(iter), "", 0)
	}
	return d.Seconds()
}
