package threadmgr

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/preproc"
	"repro/internal/tier"
)

// The functions below are Decide as it stood before its model terms went
// through the per-call table — every term re-derived at every use — kept
// verbatim as the oracle of TestDecideMatchesReference. Do not "tidy"
// them towards the production code: their value is that they are not it.

func (m *Manager) refPreprocTime(d GPUDemand, p, gpus int) float64 {
	if d.PreprocCount == 0 || p <= 0 {
		return 0
	}
	return m.cfg.Portfolio.BatchTime(d.PreprocBytes, d.PreprocCount, p) * float64(gpus)
}

func (m *Manager) refLoadTime(d GPUDemand, n, activeNodes int) float64 {
	if d.Placement.TotalOps() == 0 {
		return 0
	}
	if n <= 0 {
		return math.Inf(1)
	}
	alloc := perfmodel.SplitThreads(&m.cfg.Hierarchy, d.Placement, n, activeNodes)
	local, remote, pfs := perfmodel.LoadTimeParts(&m.cfg.Hierarchy, d.Placement, alloc, activeNodes)
	if d.PFSSlowdown > 0 {
		pfs *= d.PFSSlowdown
	}
	return local + remote + pfs
}

func (m *Manager) refTimeDiff(d GPUDemand, n, p, gpus int, trainTime float64, activeNodes int) float64 {
	return perfmodel.TimeDifference(m.refLoadTime(d, n, activeNodes), m.refPreprocTime(d, p, gpus), trainTime)
}

func (m *Manager) referenceDecide(gpus []GPUDemand, trainTime float64, activeNodes int) Decision {
	nGPU := len(gpus)
	if nGPU == 0 {
		return Decision{PreprocThreads: minPreprocThreads}
	}

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

	loading := refProportionalAlloc(gpus, budget)

	diffs := make([]float64, nGPU)
	straggler := false
	for j, d := range gpus {
		diffs[j] = m.refTimeDiff(d, loading[j], p, nGPU, trainTime, activeNodes)
		if diffs[j] >= m.cfg.Tau {
			straggler = true
		}
	}
	if !straggler {
		return Decision{PreprocThreads: p, Loading: loading, PredictedDiff: diffs}
	}

	for j, d := range gpus {
		loading[j] = m.refSearchThreads(d, loading[j], budget, p, nGPU, trainTime, activeNodes)
	}
	m.refRebalance(gpus, loading, budget, p, nGPU, trainTime, activeNodes)

	for p > minPreprocThreads {
		worst, worstDiff := -1, m.cfg.Tau
		for j, d := range gpus {
			diff := m.refTimeDiff(d, loading[j], p, nGPU, trainTime, activeNodes)
			if diff > worstDiff {
				worst, worstDiff = j, diff
			}
		}
		if worst < 0 {
			break
		}
		preBottleneck := false
		for _, d := range gpus {
			if m.refPreprocTime(d, p-1, nGPU) >= trainTime {
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

	for j, d := range gpus {
		diffs[j] = m.refTimeDiff(d, loading[j], p, nGPU, trainTime, activeNodes)
	}
	return Decision{PreprocThreads: p, Loading: loading, PredictedDiff: diffs, UsedAlgorithm1: true}
}

func refProportionalAlloc(gpus []GPUDemand, budget int) []int {
	n := len(gpus)
	loading := make([]int, n)
	totalQ := 0
	for _, d := range gpus {
		totalQ += d.QueueLen
	}
	remaining := budget - n
	for j := range gpus {
		loading[j] = 1
	}
	if remaining <= 0 {
		return loading
	}
	if totalQ == 0 {
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
	for left := remaining - assigned; left > 0; {
		given := make([]bool, n)
		for ; left > 0; left-- {
			best, bestQ := -1, -1
			for j, d := range gpus {
				if !given[j] && d.QueueLen > bestQ {
					best, bestQ = j, d.QueueLen
				}
			}
			if best < 0 {
				break
			}
			given[best] = true
			loading[best]++
		}
	}
	return loading
}

func (m *Manager) refSearchThreads(d GPUDemand, initial, lmax, p, gpus int, trainTime float64, activeNodes int) int {
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
	diff := m.refTimeDiff(d, cur, p, gpus, trainTime, activeNodes)
	if math.Abs(diff) < m.cfg.Tau {
		return cur
	}
	best, bestDiff := cur, math.Abs(diff)
	lo, hi := 0, lmax
	window := make([]float64, 0, lmax+1)
	for math.Abs(diff) >= m.cfg.Tau {
		window = append(window, diff)
		if len(window) > lmax || windowStalled(window) {
			break
		}
		if diff > 0 {
			lo = cur
		} else {
			hi = cur
		}
		next := (lo + hi + 1) / 2
		if next == cur || next < 1 || next > lmax {
			break
		}
		cur = next
		diff = m.refTimeDiff(d, cur, p, gpus, trainTime, activeNodes)
		if math.Abs(diff) < bestDiff {
			best, bestDiff = cur, math.Abs(diff)
		}
	}
	return best
}

func (m *Manager) refRebalance(gpus []GPUDemand, loading []int, budget, p, nGPU int, trainTime float64, activeNodes int) {
	sum := 0
	for _, l := range loading {
		sum += l
	}
	for sum > budget {
		best, bestDiff := -1, math.Inf(1)
		for j, d := range gpus {
			if loading[j] <= 1 {
				continue
			}
			diff := m.refTimeDiff(d, loading[j]-1, p, nGPU, trainTime, activeNodes)
			if diff < bestDiff {
				best, bestDiff = j, diff
			}
		}
		if best < 0 {
			break
		}
		loading[best]--
		sum--
	}
	for sum < budget {
		worst, worstDiff := 0, math.Inf(-1)
		for j, d := range gpus {
			diff := m.refTimeDiff(d, loading[j], p, nGPU, trainTime, activeNodes)
			if diff > worstDiff {
				worst, worstDiff = j, diff
			}
		}
		loading[worst]++
		sum++
	}
}

// randomDemand draws one GPU's upcoming batch: empty, all local, all PFS
// or a mix over the three tiers, with the PFS slowdown unknown, nominal or
// tripled.
func randomDemand(r *rand.Rand) GPUDemand {
	const size = 105 << 10
	var local, remote, pfs int
	switch r.Intn(6) {
	case 0: // a GPU with nothing to load
	case 1:
		local = 1 + r.Intn(64)
	case 2:
		pfs = 1 + r.Intn(64)
	default:
		local, remote, pfs = r.Intn(48), r.Intn(16), r.Intn(32)
	}
	pl := perfmodel.BatchPlacement{
		LocalOps: local, LocalBytes: int64(local) * size,
		RemoteOps: remote, RemoteBytes: int64(remote) * size,
		PFSOps: pfs, PFSBytes: int64(pfs) * (size + int64(r.Intn(4096))),
	}
	return GPUDemand{
		Placement:    pl,
		QueueLen:     pl.TotalOps() + r.Intn(3)*r.Intn(40),
		PreprocBytes: pl.TotalBytes(),
		PreprocCount: pl.TotalOps(),
		PFSSlowdown:  []float64{0, 1, 3}[r.Intn(3)],
	}
}

// TestDecideMatchesReference is the differential gate of the per-call
// table: over seeded random nodes (1-8 GPUs, 2-64 threads, with and
// without a preprocessing cap, τ from a nanosecond to longer than any
// batch) Decide must return what the unmemoized reference returns, the
// predicted gaps bit for bit.
func TestDecideMatchesReference(t *testing.T) {
	pm := preproc.DefaultModel()
	portfolio, err := perfmodel.FitPortfolio(nil, []int64{16 << 10, 64 << 10, 105 << 10, 512 << 10}, 64, 6,
		func(size int64, threads int) float64 { return pm.Time(size, threads) })
	if err != nil {
		t.Fatal(err)
	}
	const cases = 12000
	r := rand.New(rand.NewSource(20))
	algorithm1, beyondTable := 0, 0
	for c := 0; c < cases; c++ {
		cfg := Config{
			Hierarchy:    tier.ThetaGPULike(),
			Portfolio:    portfolio,
			TotalThreads: 2 + r.Intn(63),
			Tau:          []float64{1e-9, 0.0005, 0.002, 0.01, 10}[r.Intn(5)],
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gpus := make([]GPUDemand, 1+r.Intn(8))
		for j := range gpus {
			gpus[j] = randomDemand(r)
		}
		train := []float64{0.005, 0.03, 0.07, 0.4}[r.Intn(4)]
		active := 1 + r.Intn(8)
		// Two Decides per Manager: the second starts from a used table.
		for round := 0; round < 2; round++ {
			want := m.referenceDecide(gpus, train, active)
			got := m.Decide(gpus, train, active)
			if got.PreprocThreads != want.PreprocThreads || got.UsedAlgorithm1 != want.UsedAlgorithm1 {
				t.Fatalf("case %d: got %+v, reference %+v (cfg %+v, gpus %+v)", c, got, want, cfg, gpus)
			}
			for j := range gpus {
				if got.Loading[j] != want.Loading[j] ||
					math.Float64bits(got.PredictedDiff[j]) != math.Float64bits(want.PredictedDiff[j]) {
					t.Fatalf("case %d GPU %d: got %+v, reference %+v (cfg %+v, gpus %+v)", c, j, got, want, cfg, gpus)
				}
			}
			if want.UsedAlgorithm1 && len(gpus) >= m.stride {
				beyondTable++ // the search's upper bound, one thread per GPU, has no cell
			}
			gpus[r.Intn(len(gpus))] = randomDemand(r)
		}
		if m.Decide(gpus, train, active).UsedAlgorithm1 {
			algorithm1++
		}
	}
	// The cases must reach what they are there for: the straggler path,
	// and thread counts the table has no cell for (more GPUs than threads).
	if algorithm1 < cases/10 || beyondTable < 10 {
		t.Fatalf("%d of %d cases ran Algorithm 1, %d searched beyond the table", algorithm1, cases, beyondTable)
	}
}

// TestMemoHoldsInfAndZero pins the table's contract: +Inf (no threads)
// and 0 (no work) are stored like any value — known because their mark is
// set, not because they differ from a sentinel — and a thread count with
// no cell is evaluated directly.
func TestMemoHoldsInfAndZero(t *testing.T) {
	m := testManager(t, 8)
	m.begin([]GPUDemand{demand(16), {}}, 0.03, 1)
	for round := 0; round < 2; round++ {
		if got := m.loadTime(0, 0); !math.IsInf(got, 1) {
			t.Fatalf("round %d: loadTime with no threads = %g, want +Inf", round, got)
		}
		if got := m.loadTime(1, 4); got != 0 {
			t.Fatalf("round %d: loadTime of an empty batch = %g, want 0", round, got)
		}
		if got := m.preprocTime(1, 4); got != 0 {
			t.Fatalf("round %d: preprocTime of an empty batch = %g, want 0", round, got)
		}
	}
	for _, c := range []*memoCell{&m.memo[0], &m.memo[m.stride+4]} {
		if !c.hasLoad {
			t.Fatal("a computed +Inf or 0 was not marked as known")
		}
	}
	for _, n := range []int{-1, m.stride, m.stride + 100} {
		if got, want := m.loadTime(0, n), m.evalLoad(0, n); got != want {
			t.Fatalf("loadTime(0, %d) = %g outside the table, direct evaluation %g", n, got, want)
		}
		if got, want := m.preprocTime(0, n), m.evalPreproc(0, n); got != want {
			t.Fatalf("preprocTime(0, %d) = %g outside the table, direct evaluation %g", n, got, want)
		}
	}
	// A new Decide forgets the old one's terms.
	m.begin([]GPUDemand{{}, demand(16)}, 0.03, 1)
	if got := m.loadTime(0, 0); got != 0 {
		t.Fatalf("loadTime kept the previous Decide's +Inf: %g", got)
	}
}

// stragglerNode is an 8-GPU node whose GPUs see different tier mixes (GPU
// 0 all local ... GPU 7 mostly PFS), so Decide runs Algorithm 1, rebalance
// and the steal loop — the benchmark's threadmgr.decide_us input.
func stragglerNode() []GPUDemand {
	gpus := make([]GPUDemand, 8)
	for j := range gpus {
		gpus[j] = demand(4 * j)
	}
	return gpus
}

// TestRetainedDecisionSurvivesNextDecide: the simulator keeps a Decision
// across iterations (DecideEvery), so nothing in it may alias the
// Manager's scratch.
func TestRetainedDecisionSurvivesNextDecide(t *testing.T) {
	m := testManager(t, 24)
	first := m.Decide(stragglerNode(), 0.03, 1)
	if !first.UsedAlgorithm1 {
		t.Fatal("the straggler node did not take the Algorithm 1 path")
	}
	loading := append([]int(nil), first.Loading...)
	diffs := append([]float64(nil), first.PredictedDiff...)
	other := stragglerNode()
	for j := range other {
		other[j] = demand(32 - 4*j)
	}
	second := m.Decide(other, 0.05, 2)
	for j := range loading {
		if first.Loading[j] != loading[j] || first.PredictedDiff[j] != diffs[j] {
			t.Fatalf("GPU %d of the retained Decision changed: %+v, was %v %v", j, first, loading, diffs)
		}
	}
	if &first.Loading[0] == &second.Loading[0] || &first.PredictedDiff[0] == &second.PredictedDiff[0] {
		t.Fatal("two Decisions share a backing array")
	}
}

// TestDecideAllocations pins Decide's allocations on the straggler path to
// the returned plan: Loading and PredictedDiff. Before the table it also
// allocated a search window for each GPU it searched (10 in all on this node).
func TestDecideAllocations(t *testing.T) {
	m := testManager(t, 24)
	gpus := stragglerNode()
	if !m.Decide(gpus, 0.03, 1).UsedAlgorithm1 {
		t.Fatal("the straggler node did not take the Algorithm 1 path")
	}
	if allocs := testing.AllocsPerRun(200, func() { m.Decide(gpus, 0.03, 1) }); allocs > 2 {
		t.Fatalf("Decide allocates %.0f times per call, want at most 2 (the returned plan)", allocs)
	}
}
