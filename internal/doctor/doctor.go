package doctor

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// stallCauses are the ledger's attribution buckets, mirrored from
// internal/runtime's stallCauseNames (the doctor reads wire names, not
// Go symbols, so saved files from any build analyze the same way).
var stallCauses = []string{
	"local_hit", "peer_fetch", "pfs", "decode_wait", "queue_wait", "recovery",
}

// loadSideCauses are the causes that constitute a rank's load time —
// the storage-facing legs the straggler analysis uses.
var loadSideCauses = map[string]bool{
	"local_hit": true, "peer_fetch": true, "pfs": true, "recovery": true,
}

// DataPathCause reports whether a stall cause names a storage-facing
// leg (local_hit, peer_fetch, pfs, recovery) as opposed to a pipeline
// queueing symptom (decode_wait, queue_wait). Fault attribution blames
// the data path first: queue waits inflate second-hand whenever any
// data-path leg slows down.
func DataPathCause(name string) bool { return loadSideCauses[name] }

// prefetchCauses are the causes staging ahead of demand can incur, the
// <cause> segment of lobster_runtime_prefetch_<cause>_seconds.
var prefetchCauses = []string{"peer_fetch", "pfs", "recovery"}

// stragglerFactor: a rank whose load time exceeds the mean by this
// factor is flagged (matches the usual "straggler = consistently >1.5x
// median peer" operational rule of thumb).
const stragglerFactor = 1.5

// RankReport is one rank's stall decomposition.
type RankReport struct {
	Rank        int
	Causes      []CauseTotal // dominant first
	LoadSeconds float64      // sum over load-side causes
}

// NodePrefetch is what one node spent staging ahead of demand — its
// prefetch helpers and its idle loading workers — by cause.
type NodePrefetch struct {
	Node   int
	Causes []CauseTotal // dominant first
}

// EpochImbalance is one epoch's verdicts from the trace's barrier track,
// where the runtime judges every iteration with plan.Imbalance (per-rank
// stall spread against one training step) and names the rank that
// stalled longest, its critical rank.
type EpochImbalance struct {
	Epoch        int
	Imbalanced   float64 // fraction of the epoch's iterations flagged
	CriticalRank int     // most often critical in flagged iterations, lowest on ties; -1 if none
}

// Report is the doctor's analysis of one run's merged observability.
type Report struct {
	Ranks      []RankReport
	TopCauses  []CauseTotal // all ranks summed, dominant first
	Stragglers []int        // ranks with load time > stragglerFactor x mean

	// RankStallSeconds is what the ranks actually waited for their batches
	// (lobster_runtime_stall_seconds, all ranks). The ledger totals above
	// are data-path time by cause, most of which the runtime's one batch
	// of lookahead overlaps with compute; Hidden is the share it hid.
	RankStallSeconds float64

	// ImbalancedIterations is how many iterations the barrier flagged
	// (lobster_runtime_imbalanced_iterations_total, all critical ranks).
	ImbalancedIterations float64
	EpochImbalance       []EpochImbalance

	// The prefetch side of the ledger, per node, and the feed's counters:
	// samples staged, how many of those by loading workers whose queue was
	// empty (the rest by the prefetch helpers), demand misses on a sample
	// that was in flight (staged too late), and refusal pauses; and the
	// read slots of a node's prefetch loop (the same on every node of a
	// run, the most any source reports; 0 when none does).
	Prefetch          []NodePrefetch
	PrefetchStaged    float64
	PrefetchWorkAhead float64
	PrefetchLate      float64
	PrefetchPauses    float64
	PrefetchSlots     float64
	// PFS reads (demand and prefetch) against demand accesses (local
	// hits and misses): above the demand miss share, the prefetchers
	// read samples the cache did not keep until they were needed.
	// StagedEvicted is the part of that waste the node caches evicted
	// before any rank or peer read it.
	PFSReads       float64
	DemandAccesses float64
	StagedEvicted  float64

	// Model error of the run's clock: how many waits for booked delays it
	// made (one train wait per iteration, one per read a loading worker
	// waits for, one per due set of a prefetch loop) and by how many
	// seconds each returned late (lobster_runtime_clock_overshoot_seconds).
	ClockWaits        float64
	ClockOvershootP50 float64
	ClockOvershootP99 float64
	// How late the ranks booked their compute past its start
	// (lobster_runtime_compute_late_seconds): scheduling delay the
	// runtime dated away rather than modeled.
	ComputeBookings float64
	ComputeLateP50  float64
	ComputeLateP99  float64
	// The Go scheduler's and locks' waits over the process's life
	// (runtime/metrics, lobster_go_*): how long runnable goroutines waited
	// for a CPU, the worst of the sources' p50 and p99, and the seconds
	// goroutines spent blocked on mutexes, summed. SchedReported is false
	// when no source exports them.
	SchedReported    bool
	SchedLatencyP50  float64
	SchedLatencyP99  float64
	MutexWaitSeconds float64

	// Recovery-layer efficacy.
	Failovers       float64
	RecoverySeconds float64
	// PrefetchRecoverySeconds is RecoverySeconds' counterpart on the
	// prefetch side: failovers are counted on both.
	PrefetchRecoverySeconds float64
}

// Analyze cross-references merged metrics and traces into a Report.
// Either input may be nil (metrics-only or trace-only analysis); the
// report fills what the available sources support.
func Analyze(m *Metrics, t *Trace) *Report {
	r := &Report{}
	if m != nil {
		r.analyzeMetrics(m)
	}
	if t != nil {
		r.analyzeTrace(t)
	}
	return r
}

func (r *Report) analyzeMetrics(m *Metrics) {
	// Per-rank cause totals from the stall histograms' _sum series.
	totals := make(map[string]float64)
	for rank, causes := range causesByLabel(m, "lobster_runtime_stall_", stallCauses, "rank") {
		sortCauses(causes)
		rr := RankReport{Rank: rank, Causes: causes}
		for _, ct := range causes {
			totals[ct.Cause] += ct.Seconds
			if loadSideCauses[ct.Cause] {
				rr.LoadSeconds += ct.Seconds
			}
		}
		r.Ranks = append(r.Ranks, rr)
	}
	sort.Slice(r.Ranks, func(i, j int) bool { return r.Ranks[i].Rank < r.Ranks[j].Rank })
	for c, s := range totals {
		r.TopCauses = append(r.TopCauses, CauseTotal{Cause: c, Seconds: s})
	}
	sortCauses(r.TopCauses)

	// Stragglers: ranks whose load time stands out against the mean.
	if len(r.Ranks) > 1 {
		mean := 0.0
		for i := range r.Ranks {
			mean += r.Ranks[i].LoadSeconds
		}
		mean /= float64(len(r.Ranks))
		if mean > 0 {
			for i := range r.Ranks {
				if r.Ranks[i].LoadSeconds > stragglerFactor*mean {
					r.Stragglers = append(r.Stragglers, r.Ranks[i].Rank)
				}
			}
		}
	}

	r.analyzePrefetch(m)
	r.RankStallSeconds = m.Sum("lobster_runtime_stall_seconds_sum", nil)
	r.ImbalancedIterations = m.Sum("lobster_runtime_imbalanced_iterations_total", nil)
	r.ClockWaits = m.Sum("lobster_runtime_clock_overshoot_seconds_count", nil)
	r.ClockOvershootP50, _ = m.Quantile("lobster_runtime_clock_overshoot_seconds", 0.5)
	r.ClockOvershootP99, _ = m.Quantile("lobster_runtime_clock_overshoot_seconds", 0.99)
	r.ComputeBookings = m.Sum("lobster_runtime_compute_late_seconds_count", nil)
	r.ComputeLateP50, _ = m.Quantile("lobster_runtime_compute_late_seconds", 0.5)
	r.ComputeLateP99, _ = m.Quantile("lobster_runtime_compute_late_seconds", 0.99)
	for _, s := range m.Samples {
		if s.Name != "lobster_go_sched_latency_seconds" {
			continue
		}
		r.SchedReported = true
		switch s.Labels["quantile"] {
		case "0.5":
			r.SchedLatencyP50 = max(r.SchedLatencyP50, s.Value)
		case "0.99":
			r.SchedLatencyP99 = max(r.SchedLatencyP99, s.Value)
		}
	}
	r.MutexWaitSeconds = m.Sum("lobster_go_mutex_wait_seconds_total", nil)
	r.Failovers = m.Sum("lobster_runtime_failover_total", nil)
	r.RecoverySeconds = m.Sum("lobster_runtime_stall_recovery_seconds_sum", nil)
}

// causesByLabel reads the <prefix><cause>_seconds_sum series of every
// cause and groups the non-zero totals by the integer value of label
// (the rank, or the node).
func causesByLabel(m *Metrics, prefix string, causes []string, label string) map[int][]CauseTotal {
	out := make(map[int][]CauseTotal)
	for _, cause := range causes {
		series := prefix + cause + "_seconds_sum"
		for _, value := range m.LabelValues(series, label) {
			key, err := strconv.Atoi(value)
			if err != nil {
				continue
			}
			if secs := m.Sum(series, map[string]string{label: value}); secs != 0 {
				out[key] = append(out[key], CauseTotal{Cause: cause, Seconds: secs})
			}
		}
	}
	return out
}

// analyzePrefetch reads the prefetch side's per-node cause totals and the
// feed's counters.
func (r *Report) analyzePrefetch(m *Metrics) {
	for node, causes := range causesByLabel(m, "lobster_runtime_prefetch_", prefetchCauses, "node") {
		sortCauses(causes)
		r.Prefetch = append(r.Prefetch, NodePrefetch{Node: node, Causes: causes})
	}
	sort.Slice(r.Prefetch, func(i, j int) bool { return r.Prefetch[i].Node < r.Prefetch[j].Node })
	r.PrefetchStaged = m.Sum("lobster_runtime_prefetched_total", nil)
	r.PrefetchWorkAhead = m.Sum("lobster_runtime_workahead_total", nil)
	r.PrefetchLate = m.Sum("lobster_runtime_prefetch_late_total", nil)
	r.PrefetchPauses = m.Sum("lobster_runtime_prefetch_pauses_total", nil)
	for _, s := range m.Samples {
		if s.Name == "lobster_runtime_prefetch_slots" {
			r.PrefetchSlots = max(r.PrefetchSlots, s.Value)
		}
	}
	r.PFSReads = m.Sum("lobster_runtime_pfs_reads_total", nil)
	r.DemandAccesses = m.Sum("lobster_runtime_cache_hits_total", nil) + m.Sum("lobster_runtime_cache_misses_total", nil)
	r.StagedEvicted = m.Sum("lobster_runtime_staged_evicted_total", nil)
	r.PrefetchRecoverySeconds = m.Sum("lobster_runtime_prefetch_recovery_seconds_sum", nil)
}

// analyzeTrace reads the barrier's per-iteration verdicts into one
// EpochImbalance row per epoch.
func (r *Report) analyzeTrace(t *Trace) {
	// Per epoch: iterations, flagged ones, and flagged ones per critical
	// rank.
	type key struct{ epoch, rank int }
	iters, flagged, critical := map[int]int{}, map[int]int{}, map[key]int{}
	for i := range t.Events {
		e := &t.Events[i]
		epoch, okEpoch := e.Args["epoch"]
		rank, okRank := e.Args["critical_rank"]
		if e.Ph == "i" && e.Cat == catBarrier && okEpoch && okRank {
			iters[int(epoch)]++
			if e.Name == "imbalanced" {
				flagged[int(epoch)]++
				critical[key{int(epoch), int(rank)}]++
			}
		}
	}
	for epoch, n := range iters {
		ei := EpochImbalance{Epoch: epoch, Imbalanced: float64(flagged[epoch]) / float64(n), CriticalRank: -1}
		most := 0
		for k, n := range critical {
			if k.epoch == epoch && (n > most || n == most && k.rank < ei.CriticalRank) {
				most, ei.CriticalRank = n, k.rank
			}
		}
		r.EpochImbalance = append(r.EpochImbalance, ei)
	}
	sort.Slice(r.EpochImbalance, func(i, j int) bool { return r.EpochImbalance[i].Epoch < r.EpochImbalance[j].Epoch })
}

// Hidden is the share of the ledger's data-path time that no rank waited
// for: 1 - rank stall / ledger total. ok is false without both numbers.
// Negative means the ranks waited longer than the ledger accounts for.
func (r *Report) Hidden() (share float64, ok bool) {
	ledger := 0.0
	for _, ct := range r.TopCauses {
		ledger += ct.Seconds
	}
	if ledger == 0 || r.RankStallSeconds == 0 {
		return 0, false
	}
	return 1 - r.RankStallSeconds/ledger, true
}

// sortCauses orders dominant first, name-alphabetical on ties so the
// report is deterministic.
func sortCauses(cs []CauseTotal) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Seconds != cs[j].Seconds {
			return cs[i].Seconds > cs[j].Seconds
		}
		return cs[i].Cause < cs[j].Cause
	})
}

// WriteText renders the ranked bottleneck report.
func (r *Report) WriteText(w io.Writer) error {
	var werr error
	p := func(format string, args ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(w, format, args...)
		}
	}
	p("lobster-doctor report\n=====================\n\n")
	if len(r.TopCauses) == 0 {
		p("no stall attribution found: scrape an instrumented run's /metrics\n")
		p("(lobster_runtime_stall_<cause>_seconds histograms) or pass its trace.json\n")
	} else {
		p("Top stall causes (all ranks):\n")
		for i, ct := range r.TopCauses {
			p("  %d. %-12s %9.3fs\n", i+1, ct.Cause, ct.Seconds)
		}
		if hidden, ok := r.Hidden(); ok {
			p("  hidden: %.0f%% of that ran under compute (ranks waited %.3fs)\n", 100*hidden, r.RankStallSeconds)
		}
		p("\nPer-rank decomposition:\n")
		for _, rr := range r.Ranks {
			p("  rank %d (load %.3fs):", rr.Rank, rr.LoadSeconds)
			for _, ct := range rr.Causes {
				p(" %s=%.3fs", ct.Cause, ct.Seconds)
			}
			p("\n")
		}
	}
	if len(r.Prefetch) > 0 || r.PrefetchStaged > 0 {
		p("\nPrefetch (helpers and idle loaders, ahead of demand; no rank waits for these):\n")
		for _, np := range r.Prefetch {
			p("  node %d:", np.Node)
			for _, ct := range np.Causes {
				p(" %s=%.3fs", ct.Cause, ct.Seconds)
			}
			p("\n")
		}
		late := 0.0
		if r.PrefetchStaged > 0 {
			late = 100 * r.PrefetchLate / r.PrefetchStaged
		}
		p("  prefetch: staged %.0f (%.0f by idle loaders), late %.0f (%.1f%%), refusal pauses %.0f",
			r.PrefetchStaged, r.PrefetchWorkAhead, r.PrefetchLate, late, r.PrefetchPauses)
		if r.PrefetchSlots > 0 {
			p(", %.0f read slots per node", r.PrefetchSlots)
		}
		p("\n")
		if r.DemandAccesses > 0 {
			p("  storage: %.0f PFS reads for %.0f demand accesses (%.3f per access), %.0f staged evicted unread\n",
				r.PFSReads, r.DemandAccesses, r.PFSReads/r.DemandAccesses, r.StagedEvicted)
		}
	}
	if len(r.Stragglers) > 0 {
		p("\nStragglers (load time > %.1fx mean): ranks %v\n", stragglerFactor, r.Stragglers)
	} else if len(r.Ranks) > 1 {
		p("\nNo straggler: per-rank load times within %.1fx of the mean.\n", stragglerFactor)
	}
	if r.ImbalancedIterations > 0 || len(r.EpochImbalance) > 0 {
		p("\nImbalanced iterations (per-rank stall spread > one training step): %.0f\n", r.ImbalancedIterations)
		for _, ei := range r.EpochImbalance {
			p("  epoch %d: %.1f%% imbalanced", ei.Epoch, 100*ei.Imbalanced)
			if ei.CriticalRank >= 0 {
				p(", critical rank %d", ei.CriticalRank)
			}
			p("\n")
		}
	}
	if r.ClockWaits > 0 || r.ComputeBookings > 0 || r.SchedReported {
		p("\n")
	}
	if r.ClockWaits > 0 {
		p("modeled delays: %.0f waits, overshoot p50 %.0fus / p99 %.0fus\n",
			r.ClockWaits, 1e6*r.ClockOvershootP50, 1e6*r.ClockOvershootP99)
	}
	if r.ComputeBookings > 0 {
		p("compute booked late: p50 %.0fus / p99 %.0fus over %.0f bookings (dated away, not modeled)\n",
			1e6*r.ComputeLateP50, 1e6*r.ComputeLateP99, r.ComputeBookings)
	}
	if r.SchedReported {
		p("scheduler: runnable goroutines waited p50 %.0fus / p99 %.0fus for a CPU; %.3fs blocked on mutexes\n",
			1e6*r.SchedLatencyP50, 1e6*r.SchedLatencyP99, r.MutexWaitSeconds)
	}
	if r.Failovers > 0 {
		// Failovers are counted on both sides of the ledger, so the
		// average is over both sides' recovery reads.
		recovery := r.RecoverySeconds + r.PrefetchRecoverySeconds
		avg := recovery / r.Failovers
		p("\nRecovery layer:\n")
		p("  failovers: %.0f, %.3fs spent in recovery reads (%.1fms avg; %.3fs by ranks, %.3fs ahead of demand)\n",
			r.Failovers, recovery, 1e3*avg, r.RecoverySeconds, r.PrefetchRecoverySeconds)
	}
	return werr
}
