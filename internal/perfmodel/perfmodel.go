// Package perfmodel implements the paper's holistic performance model
// (Section 4.3): the Equation 1 data-loading time model over the three-tier
// storage hierarchy, the piecewise-linear preprocessing model portfolio of
// Section 4.1, and the Equation 2 straggler predictor that bridges thread
// management with distributed caching.
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/tier"
)

// BatchPlacement describes where the samples of one mini-batch currently
// live: B_HL (local hits), B_HR (remote hits), B_M (misses to the PFS) of
// Section 4.3, as byte totals and operation counts.
type BatchPlacement struct {
	LocalBytes  int64
	RemoteBytes int64
	PFSBytes    int64
	LocalOps    int
	RemoteOps   int
	PFSOps      int
}

// TotalBytes returns the mini-batch's total size.
func (b BatchPlacement) TotalBytes() int64 { return b.LocalBytes + b.RemoteBytes + b.PFSBytes }

// TotalOps returns the number of samples in the mini-batch.
func (b BatchPlacement) TotalOps() int { return b.LocalOps + b.RemoteOps + b.PFSOps }

// AddSample counts one sample of size bytes read from where.
func (b *BatchPlacement) AddSample(where tier.Kind, size int64) {
	switch where {
	case tier.Local:
		b.LocalBytes += size
		b.LocalOps++
	case tier.Remote:
		b.RemoteBytes += size
		b.RemoteOps++
	default:
		b.PFSBytes += size
		b.PFSOps++
	}
}

// Add accumulates another placement (e.g. to aggregate a node's GPUs).
func (b *BatchPlacement) Add(o BatchPlacement) {
	b.LocalBytes += o.LocalBytes
	b.RemoteBytes += o.RemoteBytes
	b.PFSBytes += o.PFSBytes
	b.LocalOps += o.LocalOps
	b.RemoteOps += o.RemoteOps
	b.PFSOps += o.PFSOps
}

// ThreadAlloc is the per-tier thread split (α, β, γ) for one GPU's loading.
type ThreadAlloc struct {
	Local  int // α
	Remote int // β
	PFS    int // γ
}

// Total returns α+β+γ.
func (a ThreadAlloc) Total() int { return a.Local + a.Remote + a.PFS }

// SplitThreads divides n loading threads across the tiers proportionally
// to each tier's predicted share of the load time (latency-weighted bytes),
// guaranteeing at least one thread to every tier with work. It is how a
// per-GPU thread budget from Algorithm 1 becomes the (α, β, γ) of
// Equation 1.
func SplitThreads(h *tier.Hierarchy, pl BatchPlacement, n int, activeNodes int) ThreadAlloc {
	if n <= 0 {
		return ThreadAlloc{}
	}
	// Single-thread cost per tier approximates its weight.
	wLocal := h.Local.ReadTime(pl.LocalBytes, pl.LocalOps, 1)
	wRemote := h.Remote.ReadTime(pl.RemoteBytes, pl.RemoteOps, 1)
	wPFS := h.PFSNodeCurve(activeNodes).ReadTime(pl.PFSBytes, pl.PFSOps, 1)
	total := wLocal + wRemote + wPFS
	var alloc ThreadAlloc
	if total <= 0 {
		alloc.Local = n
		return alloc
	}
	alloc.Local = tierShare(wLocal/total, n, pl.LocalOps)
	alloc.Remote = tierShare(wRemote/total, n, pl.RemoteOps)
	alloc.PFS = tierShare(wPFS/total, n, pl.PFSOps)
	// Trim rounding overshoot from the largest share; pad undershoot onto
	// the most loaded tier.
	for alloc.Total() > n && alloc.Total() > 1 {
		switch {
		case alloc.Local > 1 && wLocal <= wRemote && wLocal <= wPFS:
			alloc.Local--
		case alloc.Remote > 1 && wRemote <= wPFS:
			alloc.Remote--
		case alloc.PFS > 1:
			alloc.PFS--
		case alloc.Remote > 1:
			alloc.Remote--
		default:
			alloc.Local--
		}
	}
	for alloc.Total() < n {
		switch {
		case wPFS >= wRemote && wPFS >= wLocal && pl.PFSOps > 0:
			alloc.PFS++
		case wRemote >= wLocal && pl.RemoteOps > 0:
			alloc.Remote++
		default:
			alloc.Local++
		}
	}
	return alloc
}

// tierShare is a tier's rounded share of n threads given its fraction of
// the load time: none without work, otherwise at least one.
func tierShare(frac float64, n, ops int) int {
	if ops == 0 {
		return 0
	}
	k := int(math.Round(frac * float64(n)))
	if k < 1 {
		k = 1
	}
	return k
}

// LoadTime evaluates Equation 1: the duration of loading a mini-batch with
// the given placement and per-tier thread allocation, with activeNodes
// nodes sharing the PFS.
//
// A busy tier holding zero dedicated threads is serviced by the whole
// allocation time-sharing across tiers (the realistic behaviour when a GPU
// has fewer loading threads than tiers with work, e.g. PyTorch's one
// worker doing local then PFS reads in turn). Only an entirely empty
// allocation with pending work yields +Inf.
func LoadTime(h *tier.Hierarchy, pl BatchPlacement, alloc ThreadAlloc, activeNodes int) float64 {
	local, remote, pfs := LoadTimeParts(h, pl, alloc, activeNodes)
	return local + remote + pfs
}

// LoadTimeParts returns the three Equation 1 terms separately, letting
// callers perturb individual tiers (the simulator injects PFS burstiness
// into the third term only).
func LoadTimeParts(h *tier.Hierarchy, pl BatchPlacement, alloc ThreadAlloc, activeNodes int) (local, remote, pfs float64) {
	total := alloc.Total()
	if total == 0 {
		if pl.TotalOps() > 0 {
			inf := math.Inf(1)
			return inf, inf, inf
		}
		return 0, 0, 0
	}
	local = h.Local.ReadTime(pl.LocalBytes, pl.LocalOps, tierThreads(alloc.Local, pl.LocalOps, total))
	remote = h.Remote.ReadTime(pl.RemoteBytes, pl.RemoteOps, tierThreads(alloc.Remote, pl.RemoteOps, total))
	pfs = h.PFSNodeCurve(activeNodes).ReadTime(pl.PFSBytes, pl.PFSOps, tierThreads(alloc.PFS, pl.PFSOps, total))
	return local, remote, pfs
}

// tierThreads is the thread count a tier's ops are read with: its
// dedicated threads, or, for a busy tier that has none, the whole
// allocation time-shared across tiers.
func tierThreads(dedicated, ops, total int) int {
	if ops > 0 && dedicated == 0 {
		return total
	}
	return dedicated
}

// TimeDifference is the Equation 2 objective for one GPU: the signed gap
// (T_L + T_P) - T_train. Positive means the data pipeline is the
// bottleneck (the GPU will straggle); negative means training dominates
// and loading threads could be given away.
func TimeDifference(loadTime, preprocTime, trainTime float64) float64 {
	return loadTime + preprocTime - trainTime
}

// PreprocPortfolio is the Section 4.1 model portfolio: one piecewise-linear
// "threads -> per-sample preprocessing time" model per training-sample
// size. "During runtime, if the sample size does not have a corresponding
// model in the portfolio, we choose the model whose sample size is closest
// to the one considered."
type PreprocPortfolio struct {
	sizes  []int64 // ascending
	models []*stats.PiecewiseLinear
}

// FitPortfolio builds a portfolio by measuring per-sample preprocessing
// time at each (size, threads) grid point via the measure callback and
// fitting a piecewise-linear model with the given segment count per size.
// The measure callback returns seconds per sample of `size` bytes when
// preprocessing runs with `threads` threads.
//
// The per-size fits are independent, so they fan out over pool (nil =
// serial); measure must then be safe for concurrent calls. Models are
// slotted by size index, so the fitted portfolio is identical for any
// pool width.
func FitPortfolio(pool *par.Pool, sizes []int64, maxThreads, segments int,
	measure func(size int64, threads int) float64) (*PreprocPortfolio, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("perfmodel: no sizes to fit")
	}
	if maxThreads < 2 {
		return nil, fmt.Errorf("perfmodel: maxThreads %d < 2", maxThreads)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			return nil, fmt.Errorf("perfmodel: sizes must be strictly ascending at %d", i)
		}
	}
	p := &PreprocPortfolio{sizes: append([]int64(nil), sizes...)}
	models, err := par.Map(pool, len(sizes), func(i int) (*stats.PiecewiseLinear, error) {
		size := sizes[i]
		xs := make([]float64, 0, maxThreads)
		ys := make([]float64, 0, maxThreads)
		for n := 1; n <= maxThreads; n++ {
			xs = append(xs, float64(n))
			ys = append(ys, measure(size, n))
		}
		m, err := stats.FitPiecewiseLinear(xs, ys, segments)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: fitting size %d: %w", size, err)
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	p.models = models
	return p, nil
}

// closest returns the index of the fitted size closest to the requested
// one.
func (p *PreprocPortfolio) closest(size int64) int {
	best, bestDiff := 0, int64(math.MaxInt64)
	for i, s := range p.sizes {
		d := s - size
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return best
}

// SampleTime predicts the per-sample preprocessing time for a sample of
// the given size with n threads.
func (p *PreprocPortfolio) SampleTime(size int64, n int) float64 {
	i := p.closest(size)
	t := p.models[i].Eval(float64(n))
	// Per-sample time scales with actual size relative to the fitted
	// bucket: the kernels are streaming, so time is ~linear in bytes.
	if bucket := p.sizes[i]; bucket > 0 {
		t *= float64(size) / float64(bucket)
	}
	return t
}

// BatchTime predicts preprocessing time of a batch of count samples
// totalling `bytes` with n threads.
func (p *PreprocPortfolio) BatchTime(bytes int64, count, n int) float64 {
	if count <= 0 {
		return 0
	}
	avg := bytes / int64(count)
	return p.SampleTime(avg, n) * float64(count)
}

// PeakThreads returns the thread count in [1, maxThreads] minimizing the
// per-sample time for the given size — the "optimal number of
// preprocessing threads" of Section 4.1, Step 1.
func (p *PreprocPortfolio) PeakThreads(size int64, maxThreads int) int {
	m := p.models[p.closest(size)]
	best, bestN := math.Inf(1), 1
	for n := 1; n <= maxThreads; n++ {
		if t := m.Eval(float64(n)); t < best-1e-15 {
			best, bestN = t, n
		}
	}
	return bestN
}
