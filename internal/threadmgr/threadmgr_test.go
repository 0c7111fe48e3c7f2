package threadmgr

import (
	"math"
	"testing"

	"repro/internal/perfmodel"
	"repro/internal/preproc"
	"repro/internal/tier"
)

func testManager(t *testing.T, totalThreads int) *Manager {
	t.Helper()
	pm := preproc.DefaultModel()
	portfolio, err := perfmodel.FitPortfolio(nil, []int64{32 << 10, 105 << 10}, 16, 6,
		func(size int64, threads int) float64 { return pm.Time(size, threads) })
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{
		Hierarchy:    tier.ThetaGPULike(),
		Portfolio:    portfolio,
		TotalThreads: totalThreads,
		Tau:          0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// demand builds a GPUDemand with the given PFS miss count out of 32
// samples of ~105 KB; the rest are local hits.
func demand(pfsMisses int) GPUDemand {
	const batch = 32
	const size = 105 << 10
	local := batch - pfsMisses
	return GPUDemand{
		Placement: perfmodel.BatchPlacement{
			LocalBytes: int64(local) * size, LocalOps: local,
			PFSBytes: int64(pfsMisses) * size, PFSOps: pfsMisses,
		},
		QueueLen:     batch,
		PreprocBytes: batch * size,
		PreprocCount: batch,
	}
}

// fourOf is a 4-GPU node whose GPUs all carry demand d: the searchThreads
// tests look at GPU 0 of it (the preprocessing pool is shared four ways).
func fourOf(d GPUDemand) []GPUDemand { return []GPUDemand{d, d, d, d} }

func TestNewValidation(t *testing.T) {
	pm := preproc.DefaultModel()
	portfolio, _ := perfmodel.FitPortfolio(nil, []int64{1 << 10}, 4, 2,
		func(size int64, threads int) float64 { return pm.Time(size, threads) })
	if _, err := New(Config{Portfolio: nil, TotalThreads: 4, Tau: 1, Hierarchy: tier.ThetaGPULike()}); err == nil {
		t.Error("nil portfolio accepted")
	}
	if _, err := New(Config{Portfolio: portfolio, TotalThreads: 1, Tau: 1, Hierarchy: tier.ThetaGPULike()}); err == nil {
		t.Error("1 thread accepted")
	}
	if _, err := New(Config{Portfolio: portfolio, TotalThreads: 4, Tau: 0, Hierarchy: tier.ThetaGPULike()}); err == nil {
		t.Error("zero tau accepted")
	}
	bad := tier.ThetaGPULike()
	bad.PFSGlobalMBps = 0
	if _, err := New(Config{Portfolio: portfolio, TotalThreads: 4, Tau: 1, Hierarchy: bad}); err == nil {
		t.Error("invalid hierarchy accepted")
	}
}

func TestDecideBudgetRespected(t *testing.T) {
	m := testManager(t, 16)
	for _, misses := range [][]int{{0, 0, 0, 0}, {32, 0, 0, 0}, {8, 8, 8, 8}, {32, 32, 32, 32}} {
		gpus := make([]GPUDemand, len(misses))
		for j, mm := range misses {
			gpus[j] = demand(mm)
		}
		dec := m.Decide(gpus, 0.050, 1)
		sum := dec.PreprocThreads
		for _, l := range dec.Loading {
			sum += l
			if l < 1 {
				t.Fatalf("misses=%v: GPU got %d threads", misses, l)
			}
		}
		if sum > 16 {
			t.Fatalf("misses=%v: total threads %d > budget 16", misses, sum)
		}
		if dec.PreprocThreads < 1 {
			t.Fatalf("misses=%v: no preprocessing threads", misses)
		}
	}
}

func TestDecideBalancedNoAlgorithm1(t *testing.T) {
	m := testManager(t, 16)
	// All-local batches: loading is trivially fast, no straggler expected.
	gpus := []GPUDemand{demand(0), demand(0), demand(0), demand(0)}
	dec := m.Decide(gpus, 0.050, 1)
	if dec.UsedAlgorithm1 {
		t.Fatal("Algorithm 1 ran for a balanced, fast workload")
	}
	// Equal queues => allocations within one thread of each other (the
	// budget may not divide evenly).
	min, max := dec.Loading[0], dec.Loading[0]
	for _, l := range dec.Loading {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 1 {
		t.Fatalf("equal queues got unequal threads: %v", dec.Loading)
	}
}

func TestDecideStragglerGetsMoreThreads(t *testing.T) {
	m := testManager(t, 16)
	// GPU 0 must fetch most of its batch from the PFS; others are local.
	// The train time is short enough that GPU 0's loading cannot hide.
	gpus := []GPUDemand{demand(24), demand(0), demand(0), demand(0)}
	dec := m.Decide(gpus, 0.030, 1)
	if !dec.UsedAlgorithm1 {
		t.Fatal("straggler did not trigger Algorithm 1")
	}
	for j := 1; j < 4; j++ {
		if dec.Loading[0] <= dec.Loading[j] {
			t.Fatalf("straggler GPU 0 got %d threads, GPU %d got %d", dec.Loading[0], j, dec.Loading[j])
		}
	}
}

func TestDecideStealsFromPreprocessingUnderPressure(t *testing.T) {
	m := testManager(t, 16)
	balanced := m.Decide([]GPUDemand{demand(0), demand(0), demand(0), demand(0)}, 0.030, 1)
	pressured := m.Decide([]GPUDemand{demand(32), demand(32), demand(32), demand(32)}, 0.030, 1)
	if pressured.PreprocThreads >= balanced.PreprocThreads {
		t.Fatalf("pipeline pressure did not shrink preprocessing: %d -> %d",
			balanced.PreprocThreads, pressured.PreprocThreads)
	}
	if pressured.PreprocThreads < 1 {
		t.Fatal("preprocessing starved below the floor")
	}
}

func TestDecideImprovesWorstGap(t *testing.T) {
	m := testManager(t, 16)
	gpus := []GPUDemand{demand(28), demand(2), demand(2), demand(2)}
	const train = 0.030

	// Naive equal split for comparison.
	naive := make([]float64, 4)
	m.begin(gpus, train, 1)
	for j := range gpus {
		naive[j] = m.timeDiff(j, 3, 4) // 12 loading + 4 preproc
	}
	dec := m.Decide(gpus, train, 1)
	worstNaive, worstDec := math.Inf(-1), math.Inf(-1)
	for j := range gpus {
		if naive[j] > worstNaive {
			worstNaive = naive[j]
		}
		if dec.PredictedDiff[j] > worstDec {
			worstDec = dec.PredictedDiff[j]
		}
	}
	if worstDec >= worstNaive {
		t.Fatalf("Decide did not improve the worst gap: naive %g vs decided %g", worstNaive, worstDec)
	}
}

func TestProportionalAlloc(t *testing.T) {
	gpus := []GPUDemand{{QueueLen: 30}, {QueueLen: 10}, {QueueLen: 0}}
	got := proportionalAlloc(gpus, 9, make([]bool, len(gpus)))
	sum := 0
	for _, l := range got {
		sum += l
		if l < 1 {
			t.Fatalf("allocation below 1: %v", got)
		}
	}
	if sum != 9 {
		t.Fatalf("allocated %d, want 9: %v", sum, got)
	}
	if got[0] <= got[1] || got[1] < got[2] {
		t.Fatalf("allocation not monotone in queue length: %v", got)
	}
}

func TestProportionalAllocIdleQueues(t *testing.T) {
	gpus := []GPUDemand{{}, {}, {}}
	got := proportionalAlloc(gpus, 7, make([]bool, len(gpus)))
	sum := 0
	for _, l := range got {
		sum += l
	}
	if sum != 7 {
		t.Fatalf("allocated %d, want 7", sum)
	}
	// Spread must be even within 1.
	if got[0]-got[2] > 1 {
		t.Fatalf("idle spread uneven: %v", got)
	}
}

func TestProportionalAllocTightBudget(t *testing.T) {
	gpus := []GPUDemand{{QueueLen: 5}, {QueueLen: 5}}
	got := proportionalAlloc(gpus, 2, make([]bool, len(gpus)))
	if got[0] != 1 || got[1] != 1 {
		t.Fatalf("tight budget alloc = %v, want [1 1]", got)
	}
}

func TestSearchThreadsConverges(t *testing.T) {
	m := testManager(t, 16)
	const train = 0.030
	m.begin(fourOf(demand(24)), train, 1)
	got := m.searchThreads(0, 1, 12, 4)
	if got < 1 || got > 12 {
		t.Fatalf("searchThreads out of range: %d", got)
	}
	// The found count must be at least as good as the start.
	start := math.Abs(m.timeDiff(0, 1, 4))
	found := math.Abs(m.timeDiff(0, got, 4))
	if found > start {
		t.Fatalf("search made things worse: start %g, found %g", start, found)
	}
}

func TestSearchThreadsAlreadyConverged(t *testing.T) {
	m := testManager(t, 16)
	// Trivially fast: |diff| dominated by -train, still >= tau.
	m.begin(fourOf(demand(0)), 1000.0, 1)
	got := m.searchThreads(0, 2, 12, 4)
	// With an absurd train time every allocation has the same huge |diff|;
	// the search must terminate and return something in range.
	if got < 1 || got > 12 {
		t.Fatalf("got %d", got)
	}
}

func TestWindowStalled(t *testing.T) {
	if windowStalled([]float64{1}) {
		t.Error("single entry reported stalled")
	}
	if !windowStalled([]float64{3, 2, 2}) {
		t.Error("repeated tail not reported stalled")
	}
	if windowStalled([]float64{2, 3}) {
		t.Error("progressing window reported stalled")
	}
}

func TestDecideEmptyGPUs(t *testing.T) {
	m := testManager(t, 8)
	dec := m.Decide(nil, 0.05, 1)
	if len(dec.Loading) != 0 || dec.PreprocThreads < 1 {
		t.Fatalf("empty decide = %+v", dec)
	}
}
