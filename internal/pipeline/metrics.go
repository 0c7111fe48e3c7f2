package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// Metrics aggregates the measurements of one simulated training run — the
// quantities every experiment reports: end-to-end time, cache hit ratio,
// GPU utilization, load-imbalance iteration counts, and batch-time
// distributions (Figures 7, 8, 10 and the Section 5.5 hit-ratio
// comparison).
type Metrics struct {
	Strategy string
	Model    string
	Dataset  string
	Nodes    int
	GPUs     int // per node
	Epochs   int

	// TotalTime is the end-to-end wall time (virtual seconds).
	TotalTime float64
	// TrainTimeTotal is the sum of pure training compute across GPUs.
	TrainTimeTotal float64
	// Iterations is the total number of global iterations executed.
	Iterations int

	// Cache counters aggregated over all nodes.
	CacheHits   uint64
	CacheMisses uint64
	// RemoteHits/PFSFetches split the misses by where the sample came from.
	RemoteHits uint64
	PFSFetches uint64
	// PrefetchedBytes counts bytes moved by prefetching.
	PrefetchedBytes int64

	// ImbalancedIterations counts iterations where the spread of per-GPU
	// data-ready delays exceeded the imbalance threshold (Fig. 8).
	ImbalancedIterations int

	// BatchTimes is the distribution of per-iteration durations (Fig. 8c).
	BatchTimes *stats.Summary
}

// HitRatio returns local cache hits over all lookups (Section 5.5's
// "memory cache hit ratio").
func (r *Metrics) HitRatio() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// GPUUtilization returns the fraction of GPU time spent in the training
// stage (Fig. 10): total training compute over (GPUs × wall time).
func (r *Metrics) GPUUtilization() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return r.TrainTimeTotal / (r.TotalTime * float64(r.Nodes*r.GPUs))
}

// ImbalanceFraction returns the fraction of iterations with load imbalance.
func (r *Metrics) ImbalanceFraction() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return float64(r.ImbalancedIterations) / float64(r.Iterations)
}

// Throughput returns samples consumed per virtual second.
func (r *Metrics) Throughput(samplesPerIteration int) float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return float64(r.Iterations*samplesPerIteration) / r.TotalTime
}

// String renders a one-line summary.
func (r *Metrics) String() string {
	return fmt.Sprintf("%-10s %-10s %dx%d: time=%8.2fs hit=%5.1f%% util=%5.1f%% imbalanced=%5.1f%%",
		r.Strategy, r.Model, r.Nodes, r.GPUs, r.TotalTime,
		r.HitRatio()*100, r.GPUUtilization()*100, r.ImbalanceFraction()*100)
}

// Speedup returns baseline.TotalTime / r.TotalTime, the convention of
// Figures 7 and 11 ("speedup compared with X").
func (r *Metrics) Speedup(baseline *Metrics) float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return baseline.TotalTime / r.TotalTime
}

// Table formats a set of runs as an aligned text table with speedups
// against the first run.
func Table(runs []*Metrics) string {
	if len(runs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %8s %7s %7s %10s %9s\n",
		"strategy", "time(s)", "speedup", "hit%", "util%", "imbal%", "p95batch")
	base := runs[0]
	for _, r := range runs {
		p95 := 0.0
		if r.BatchTimes != nil {
			p95 = r.BatchTimes.Percentile(95)
		}
		fmt.Fprintf(&b, "%-12s %10.2f %8.2f %7.1f %7.1f %10.1f %9.4f\n",
			r.Strategy, r.TotalTime, r.Speedup(base),
			r.HitRatio()*100, r.GPUUtilization()*100,
			r.ImbalanceFraction()*100, p95)
	}
	return b.String()
}
