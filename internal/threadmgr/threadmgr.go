// Package threadmgr implements Lobster's flexible thread management
// (Sections 4.1, 4.2, 4.4): deciding how many CPU threads the
// preprocessing stage gets, distributing the remaining loading threads
// across the co-located GPUs' request queues, and running the Algorithm 1
// heuristic when a straggler is predicted.
package threadmgr

import (
	"fmt"
	"math"

	"repro/internal/perfmodel"
	"repro/internal/tier"
)

// GPUDemand describes one GPU's upcoming work, as seen by the manager.
type GPUDemand struct {
	// Placement is the tier composition of the GPU's next mini-batch
	// (B_HL, B_HR, B_M of Equation 1).
	Placement perfmodel.BatchPlacement
	// QueueLen is the number of pending requests in the GPU's loading
	// queue (Section 4.2: proportional allocation when no straggler is
	// predicted).
	QueueLen int
	// PreprocBytes/PreprocCount describe the preprocessing work of the
	// batch (normally the batch itself).
	PreprocBytes int64
	PreprocCount int
	// PFSSlowdown is the recently observed ratio of actual to predicted
	// PFS read time for this GPU (1 = nominal, 0 = unknown). Lustre OST
	// congestion persists across iterations, so the previous iteration's
	// slowdown predicts the next one — the runtime feedback that lets the
	// manager "adapt quickly to changing performance bottleneck shifts"
	// (Section 4.1).
	PFSSlowdown float64
}

// Decision is the manager's output for one node and iteration.
type Decision struct {
	// PreprocThreads is the node's preprocessing pool size.
	PreprocThreads int
	// Loading[j] is GPU j's loading-thread budget; the per-tier split is
	// derived with perfmodel.SplitThreads.
	Loading []int
	// PredictedDiff[j] is the Equation 2 gap predicted for GPU j under
	// this decision (diagnostics; positive = pipeline-bound).
	PredictedDiff []float64
	// UsedAlgorithm1 reports whether the straggler path ran.
	UsedAlgorithm1 bool
}

// TauFraction is Algorithm 1's convergence threshold τ as a fraction of
// the model's iteration time T_train. The simulator and the runtime both
// set Config.Tau to TauFraction x T_train.
const TauFraction = 0.05

// Config parameterises a Manager.
type Config struct {
	Hierarchy tier.Hierarchy
	// Portfolio predicts preprocessing times (Section 4.1's piecewise
	// models).
	Portfolio *perfmodel.PreprocPortfolio
	// TotalThreads is the node's CPU budget shared by loading and
	// preprocessing.
	TotalThreads int
	// Tau is Algorithm 1's convergence threshold τ, in seconds.
	Tau float64
}

// minPreprocThreads floors the preprocessing pool.
const minPreprocThreads = 1

// Manager makes thread decisions for one node. It keeps no decision
// state between calls, so one instance serves every iteration of a run,
// but it does keep the scratch of the Decide in progress (the call's
// inputs, the table its model terms are computed into, the search
// window): one Manager runs one Decide at a time. Both callers do — the
// simulator is single-goroutine and the runtime decides on the barrier's
// last arriver — and a Decision never points into the scratch.
type Manager struct {
	cfg Config

	// Inputs of the Decide in progress, set by begin.
	gpus        []GPUDemand
	trainTime   float64
	activeNodes int

	// memo[j*stride+n] holds GPU j's Equation 1 and preprocessing terms at
	// thread count n, each computed at most once per Decide: within one
	// call both are pure functions of (j, n), and Algorithm 1, rebalance
	// and the steal loop ask for the same few pairs hundreds of times.
	memo   []memoCell
	stride int // TotalThreads + 2: thread counts 0..TotalThreads+1

	given  []bool    // proportionalAlloc's per-sweep marks, one per GPU
	window []float64 // searchThreads' explored gaps
}

// memoCell is one (GPU, thread count) entry of the table. The has flags,
// not the values, say whether a term is known: +Inf (no threads) and 0
// (no work) are ordinary results.
type memoCell struct {
	load, pre       float64
	hasLoad, hasPre bool
}

// New validates the configuration and returns a Manager.
func New(cfg Config) (*Manager, error) {
	if cfg.Portfolio == nil {
		return nil, fmt.Errorf("threadmgr: nil portfolio")
	}
	if cfg.TotalThreads < 2 {
		return nil, fmt.Errorf("threadmgr: TotalThreads %d < 2", cfg.TotalThreads)
	}
	if cfg.Tau <= 0 {
		return nil, fmt.Errorf("threadmgr: Tau %g <= 0", cfg.Tau)
	}
	if err := cfg.Hierarchy.Validate(); err != nil {
		return nil, fmt.Errorf("threadmgr: %w", err)
	}
	return &Manager{cfg: cfg, stride: cfg.TotalThreads + 2}, nil
}

// begin opens a Decide over the given demands: every model term asked
// for until the next begin is computed from them, once.
func (m *Manager) begin(gpus []GPUDemand, trainTime float64, activeNodes int) {
	m.gpus, m.trainTime, m.activeNodes = gpus, trainTime, activeNodes
	cells := len(gpus) * m.stride
	if cells > len(m.memo) { // more GPUs than any Decide before
		m.memo = make([]memoCell, cells)
		m.given = make([]bool, len(gpus))
	} else {
		clear(m.memo[:cells])
	}
}

// preprocTime predicts GPU j's preprocessing duration when the node pool
// has p threads shared by the call's GPUs: the GPU's batch is processed at
// an equal share of the pool's throughput.
//
//lint:hotpath read hundreds of times per Decide; a lookup must not cost more than the model term it saves
func (m *Manager) preprocTime(j, p int) float64 {
	if uint(p) >= uint(m.stride) {
		return m.evalPreproc(j, p)
	}
	c := &m.memo[j*m.stride+p]
	if !c.hasPre {
		c.pre, c.hasPre = m.evalPreproc(j, p), true
	}
	return c.pre
}

// evalPreproc computes the term preprocTime looks up.
func (m *Manager) evalPreproc(j, p int) float64 {
	d := &m.gpus[j]
	if d.PreprocCount == 0 || p <= 0 {
		return 0
	}
	return m.cfg.Portfolio.BatchTime(d.PreprocBytes, d.PreprocCount, p) * float64(len(m.gpus))
}

// loadTime predicts GPU j's loading duration with n threads, applying the
// observed PFS slowdown feedback to the PFS term.
//
//lint:hotpath read hundreds of times per Decide; a lookup must not cost more than the model term it saves
func (m *Manager) loadTime(j, n int) float64 {
	if uint(n) >= uint(m.stride) {
		return m.evalLoad(j, n)
	}
	c := &m.memo[j*m.stride+n]
	if !c.hasLoad {
		c.load, c.hasLoad = m.evalLoad(j, n), true
	}
	return c.load
}

// evalLoad computes the term loadTime looks up: Equation 1 under the
// thread split SplitThreads derives for n threads.
func (m *Manager) evalLoad(j, n int) float64 {
	d := &m.gpus[j]
	if d.Placement.TotalOps() == 0 {
		return 0
	}
	if n <= 0 {
		return math.Inf(1)
	}
	alloc := perfmodel.SplitThreads(&m.cfg.Hierarchy, d.Placement, n, m.activeNodes)
	local, remote, pfs := perfmodel.LoadTimeParts(&m.cfg.Hierarchy, d.Placement, alloc, m.activeNodes)
	if d.PFSSlowdown > 0 {
		pfs *= d.PFSSlowdown
	}
	return local + remote + pfs
}

// timeDiff is Equation 2 for GPU j under (loading threads n, preproc p).
func (m *Manager) timeDiff(j, n, p int) float64 {
	return perfmodel.TimeDifference(m.loadTime(j, n), m.preprocTime(j, p), m.trainTime)
}

// Decide produces the node's thread plan for the next iteration.
//
// The strategy follows Section 4's three steps: (1) pick the preprocessing
// thread count from the performance model (peak throughput, Observation 3);
// (2) when no straggler is predicted, split loading threads across GPUs in
// proportion to queue length; (3) when a straggler is predicted, run the
// Algorithm 1 binary search per GPU, then rebalance to the budget, and as
// long as the pipeline remains the bottleneck, move threads from
// preprocessing to loading (Section 4.1, Step 2).
func (m *Manager) Decide(gpus []GPUDemand, trainTime float64, activeNodes int) Decision {
	nGPU := len(gpus)
	if nGPU == 0 {
		return Decision{PreprocThreads: minPreprocThreads}
	}
	m.begin(gpus, trainTime, activeNodes)

	// Step 1: preprocessing threads at peak throughput for the average
	// sample size, bounded so every GPU can keep at least one loading
	// thread.
	avgSize := int64(100 << 10)
	var bytes int64
	var count int
	for _, d := range gpus {
		bytes += d.PreprocBytes
		count += d.PreprocCount
	}
	if count > 0 {
		avgSize = bytes / int64(count)
	}
	maxPre := m.cfg.TotalThreads - nGPU
	if maxPre < minPreprocThreads {
		maxPre = minPreprocThreads
	}
	p := m.cfg.Portfolio.PeakThreads(avgSize, maxPre)
	if p < minPreprocThreads {
		p = minPreprocThreads
	}

	budget := m.cfg.TotalThreads - p
	if budget < nGPU {
		budget = nGPU
		p = m.cfg.TotalThreads - budget
		if p < minPreprocThreads {
			p = minPreprocThreads
		}
	}

	// Step 2: proportional initial allocation (Section 4.2). The plan is
	// allocated per call: callers keep a Decision across later Decides.
	loading := proportionalAlloc(gpus, budget, m.given[:nGPU])

	// Straggler prediction: a GPU whose Equation 2 gap is positive beyond
	// τ will finish assembling its mini-batch after training wants it —
	// it is "predicted to become a straggler due to data loading"
	// (Section 4.2). Negative gaps (pipeline headroom) do not trigger the
	// heuristic; proportional allocation already serves them.
	diffs := make([]float64, nGPU)
	straggler := false
	for j := range gpus {
		diffs[j] = m.timeDiff(j, loading[j], p)
		if diffs[j] >= m.cfg.Tau {
			straggler = true
		}
	}
	if !straggler {
		return Decision{PreprocThreads: p, Loading: loading, PredictedDiff: diffs}
	}

	// Step 3: Algorithm 1 per GPU, then fit the budget, then steal from
	// preprocessing while it stays off the critical path.
	for j := range gpus {
		loading[j] = m.searchThreads(j, loading[j], budget, p)
	}
	m.rebalance(loading, budget, p)

	for p > minPreprocThreads {
		worst, worstDiff := -1, m.cfg.Tau
		for j := range gpus {
			diff := m.timeDiff(j, loading[j], p)
			if diff > worstDiff {
				worst, worstDiff = j, diff
			}
		}
		if worst < 0 {
			break // no GPU pipeline-bound beyond τ
		}
		// Taking a preprocessing thread must not make preprocessing the
		// bottleneck (Section 4.1, Step 2's guard).
		preBottleneck := false
		for j := range gpus {
			if m.preprocTime(j, p-1) >= trainTime {
				preBottleneck = true
				break
			}
		}
		if preBottleneck {
			break
		}
		p--
		loading[worst]++
	}

	for j := range gpus {
		diffs[j] = m.timeDiff(j, loading[j], p)
	}
	return Decision{PreprocThreads: p, Loading: loading, PredictedDiff: diffs, UsedAlgorithm1: true}
}

// proportionalAlloc splits the budget by queue length, guaranteeing one
// thread per GPU. given is caller-provided scratch of len(gpus).
func proportionalAlloc(gpus []GPUDemand, budget int, given []bool) []int {
	n := len(gpus)
	loading := make([]int, n)
	totalQ := 0
	for _, d := range gpus {
		totalQ += d.QueueLen
	}
	remaining := budget - n // one thread each is reserved
	for j := range gpus {
		loading[j] = 1
	}
	if remaining <= 0 {
		return loading
	}
	if totalQ == 0 {
		// Idle queues: spread evenly.
		for j := 0; remaining > 0; j = (j + 1) % n {
			loading[j]++
			remaining--
		}
		return loading
	}
	assigned := 0
	for j, d := range gpus {
		k := remaining * d.QueueLen / totalQ
		loading[j] += k
		assigned += k
	}
	// Distribute the rounding remainder one thread per GPU, longest
	// queues first (each GPU at most once per sweep, so ties spread
	// evenly instead of piling onto the first GPU).
	for left := remaining - assigned; left > 0; {
		clear(given)
		for ; left > 0; left-- {
			best, bestQ := -1, -1
			for j, d := range gpus {
				if !given[j] && d.QueueLen > bestQ {
					best, bestQ = j, d.QueueLen
				}
			}
			if best < 0 {
				break // all GPUs served this sweep
			}
			given[best] = true
			loading[best]++
		}
	}
	return loading
}

// searchThreads is Algorithm 1's per-GPU binary search: find the loading
// thread count in [1, lmax] minimizing |T_L + T_P - T_train|, recording
// explored gaps in the window W and stopping early when the search stops
// making progress.
//
// Note on fidelity: the paper's listing updates ℓmin when T_dif < 0. With
// T_dif = (T_L+T_P) - T_train and loading time decreasing in threads, the
// physically consistent move is the opposite (more threads when the
// pipeline is too slow), which is what we implement; the listing's
// variable naming appears inverted.
func (m *Manager) searchThreads(j, initial, lmax, p int) int {
	if lmax < 1 {
		lmax = 1
	}
	cur := initial
	if cur < 1 {
		cur = 1
	}
	if cur > lmax {
		cur = lmax
	}
	diff := m.timeDiff(j, cur, p)
	if math.Abs(diff) < m.cfg.Tau {
		return cur
	}
	best, bestDiff := cur, math.Abs(diff)
	lo, hi := 0, lmax // open-below, closed-above interval
	m.window = m.window[:0]
	for math.Abs(diff) >= m.cfg.Tau {
		m.window = append(m.window, diff)
		if len(m.window) > lmax || windowStalled(m.window) {
			break
		}
		if diff > 0 {
			lo = cur // pipeline too slow: need more threads
		} else {
			hi = cur // headroom: release threads
		}
		next := (lo + hi + 1) / 2
		if next == cur || next < 1 || next > lmax {
			break
		}
		cur = next
		diff = m.timeDiff(j, cur, p)
		if math.Abs(diff) < bestDiff {
			best, bestDiff = cur, math.Abs(diff)
		}
	}
	return best
}

// windowStalled is Algorithm 1's IsConsistent check: the last two explored
// gaps are identical, so the search is oscillating without progress.
func windowStalled(w []float64) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2]
}

// rebalance adjusts per-GPU counts to exactly the budget while minimizing
// the Equation 3 spread: threads are taken from the GPU with the most
// headroom (most negative gap) and given to the GPU with the worst gap.
func (m *Manager) rebalance(loading []int, budget, p int) {
	sum := 0
	for _, l := range loading {
		sum += l
	}
	for sum > budget {
		best, bestDiff := -1, math.Inf(1)
		for j := range loading {
			if loading[j] <= 1 {
				continue
			}
			diff := m.timeDiff(j, loading[j]-1, p)
			if diff < bestDiff {
				best, bestDiff = j, diff
			}
		}
		if best < 0 {
			break // every GPU at its floor
		}
		loading[best]--
		sum--
	}
	for sum < budget {
		worst, worstDiff := 0, math.Inf(-1)
		for j := range loading {
			diff := m.timeDiff(j, loading[j], p)
			if diff > worstDiff {
				worst, worstDiff = j, diff
			}
		}
		loading[worst]++
		sum++
	}
}
