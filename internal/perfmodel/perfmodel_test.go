package perfmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/preproc"
	"repro/internal/tier"
)

func TestBatchPlacementAdd(t *testing.T) {
	a := BatchPlacement{LocalBytes: 10, RemoteBytes: 20, PFSBytes: 30, LocalOps: 1, RemoteOps: 2, PFSOps: 3}
	b := a
	a.Add(b)
	if a.TotalBytes() != 120 || a.TotalOps() != 12 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestSplitThreadsCoversAllTiers(t *testing.T) {
	h := tier.ThetaGPULike()
	pl := BatchPlacement{LocalBytes: 1e6, RemoteBytes: 1e6, PFSBytes: 1e6,
		LocalOps: 10, RemoteOps: 10, PFSOps: 10}
	for n := 3; n <= 16; n++ {
		a := SplitThreads(&h, pl, n, 1)
		if a.Total() != n {
			t.Fatalf("n=%d: total alloc %d", n, a.Total())
		}
		if a.Local < 1 || a.Remote < 1 || a.PFS < 1 {
			t.Fatalf("n=%d: tier with work got zero threads: %+v", n, a)
		}
		// PFS is the slowest tier; it must get the most threads.
		if a.PFS < a.Local || a.PFS < a.Remote {
			t.Fatalf("n=%d: PFS not prioritized: %+v", n, a)
		}
	}
}

func TestSplitThreadsSkipsEmptyTiers(t *testing.T) {
	h := tier.ThetaGPULike()
	pl := BatchPlacement{LocalBytes: 1e6, LocalOps: 10}
	a := SplitThreads(&h, pl, 4, 1)
	if a.Local != 4 || a.Remote != 0 || a.PFS != 0 {
		t.Fatalf("all threads should go local: %+v", a)
	}
	if got := SplitThreads(&h, BatchPlacement{}, 4, 1); got.Local != 4 {
		t.Fatalf("empty placement should default to local: %+v", got)
	}
	if got := SplitThreads(&h, pl, 0, 1); got.Total() != 0 {
		t.Fatalf("zero budget should allocate nothing: %+v", got)
	}
}

func TestSplitThreadsPropertyExact(t *testing.T) {
	h := tier.ThetaGPULike()
	f := func(lb, rb, pb uint32, lo, ro, po uint8, nRaw uint8) bool {
		pl := BatchPlacement{
			LocalBytes: int64(lb), RemoteBytes: int64(rb), PFSBytes: int64(pb),
			LocalOps: int(lo), RemoteOps: int(ro), PFSOps: int(po),
		}
		// Ops imply bytes: clear bytes where ops are zero for coherence.
		if pl.LocalOps == 0 {
			pl.LocalBytes = 0
		}
		if pl.RemoteOps == 0 {
			pl.RemoteBytes = 0
		}
		if pl.PFSOps == 0 {
			pl.PFSBytes = 0
		}
		tiersWithWork := 0
		for _, ops := range []int{pl.LocalOps, pl.RemoteOps, pl.PFSOps} {
			if ops > 0 {
				tiersWithWork++
			}
		}
		n := int(nRaw%16) + tiersWithWork + 1 // enough threads for every busy tier
		a := SplitThreads(&h, pl, n, 2)
		if a.Total() != n {
			return false
		}
		if pl.LocalOps > 0 && a.Local == 0 {
			return false
		}
		if pl.RemoteOps > 0 && a.Remote == 0 {
			return false
		}
		if pl.PFSOps > 0 && a.PFS == 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadTimeEquation1(t *testing.T) {
	h := tier.ThetaGPULike()
	pl := BatchPlacement{LocalBytes: 2e6, RemoteBytes: 3e6, PFSBytes: 4e6,
		LocalOps: 20, RemoteOps: 30, PFSOps: 40}
	alloc := ThreadAlloc{Local: 2, Remote: 2, PFS: 4}
	got := LoadTime(&h, pl, alloc, 1)
	want := h.ReadTime(tier.Local, 2e6, 20, 2, 1) +
		h.ReadTime(tier.Remote, 3e6, 30, 2, 1) +
		h.ReadTime(tier.PFS, 4e6, 40, 4, 1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("LoadTime = %g, want %g", got, want)
	}
}

func TestLoadTimeInfiniteWithoutAnyThreads(t *testing.T) {
	h := tier.ThetaGPULike()
	pl := BatchPlacement{PFSBytes: 1e6, PFSOps: 10}
	if got := LoadTime(&h, pl, ThreadAlloc{}, 1); !math.IsInf(got, 1) {
		t.Fatalf("work with zero threads gave %g, want +Inf", got)
	}
	if got := LoadTime(&h, BatchPlacement{}, ThreadAlloc{}, 1); got != 0 {
		t.Fatalf("no work, no threads gave %g, want 0", got)
	}
}

func TestLoadTimeTimeSharedTier(t *testing.T) {
	// A busy tier with zero dedicated threads is serviced by the whole
	// allocation, so the result equals the sum of per-tier times with the
	// full allocation on the orphan tier.
	h := tier.ThetaGPULike()
	pl := BatchPlacement{LocalBytes: 1e6, LocalOps: 10, PFSBytes: 1e6, PFSOps: 10}
	got := LoadTime(&h, pl, ThreadAlloc{Local: 1}, 1)
	want := h.ReadTime(tier.Local, 1e6, 10, 1, 1) + h.ReadTime(tier.PFS, 1e6, 10, 1, 1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("time-shared LoadTime = %g, want %g", got, want)
	}
}

func TestLoadTimeMoreThreadsFaster(t *testing.T) {
	h := tier.ThetaGPULike()
	pl := BatchPlacement{PFSBytes: 10e6, PFSOps: 100}
	t2 := LoadTime(&h, pl, ThreadAlloc{PFS: 2}, 1)
	t8 := LoadTime(&h, pl, ThreadAlloc{PFS: 8}, 1)
	if t8 >= t2 {
		t.Fatalf("8 PFS threads (%g) not faster than 2 (%g)", t8, t2)
	}
}

func TestTimeDifferenceSign(t *testing.T) {
	if TimeDifference(2, 1, 4) >= 0 {
		t.Fatal("pipeline faster than training must be negative")
	}
	if TimeDifference(3, 2, 4) <= 0 {
		t.Fatal("pipeline slower than training must be positive")
	}
}

// modelMeasure derives per-sample time from the Observation-3 roofline:
// the "measurement" used to fit the portfolio in tests.
func modelMeasure(size int64, threads int) float64 {
	return preproc.DefaultModel().Time(size, threads)
}

func TestFitPortfolioValidation(t *testing.T) {
	if _, err := FitPortfolio(nil, nil, 8, 3, modelMeasure); err == nil {
		t.Error("empty sizes accepted")
	}
	if _, err := FitPortfolio(nil, []int64{100}, 1, 3, modelMeasure); err == nil {
		t.Error("maxThreads 1 accepted")
	}
	if _, err := FitPortfolio(nil, []int64{100, 100}, 8, 3, modelMeasure); err == nil {
		t.Error("non-ascending sizes accepted")
	}
}

func TestPortfolioPredictions(t *testing.T) {
	sizes := []int64{32 << 10, 105 << 10, 512 << 10}
	p, err := FitPortfolio(nil, sizes, 16, 6, modelMeasure)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions at fitted grid points should be close to truth.
	for _, size := range sizes {
		for _, n := range []int{1, 4, 6, 12} {
			got := p.SampleTime(size, n)
			want := modelMeasure(size, n)
			if math.Abs(got-want)/want > 0.15 {
				t.Errorf("SampleTime(%d, %d) = %g, want ~%g", size, n, got, want)
			}
		}
	}
	// Peak threads must match the model's (6, per Figure 6).
	if got := p.PeakThreads(105<<10, 16); got < 5 || got > 7 {
		t.Errorf("PeakThreads = %d, want ~6", got)
	}
}

func TestPortfolioClosestSizeSelection(t *testing.T) {
	sizes := []int64{10 << 10, 1 << 20}
	p, err := FitPortfolio(nil, sizes, 8, 4, modelMeasure)
	if err != nil {
		t.Fatal(err)
	}
	// A 12 KB sample must use the 10 KB model (scaled), not the 1 MB one.
	got := p.SampleTime(12<<10, 4)
	want := modelMeasure(12<<10, 4)
	if math.Abs(got-want)/want > 0.2 {
		t.Errorf("closest-size prediction %g, want ~%g", got, want)
	}
	if len(p.sizes) != 2 {
		t.Errorf("%d size buckets, want 2", len(p.sizes))
	}
}

func TestPortfolioBatchTime(t *testing.T) {
	p, err := FitPortfolio(nil, []int64{100 << 10}, 8, 4, modelMeasure)
	if err != nil {
		t.Fatal(err)
	}
	bytes := int64(32 * (100 << 10))
	got := p.BatchTime(bytes, 32, 6)
	want := modelMeasure(100<<10, 6) * 32
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("BatchTime = %g, want ~%g", got, want)
	}
	if p.BatchTime(0, 0, 4) != 0 {
		t.Error("empty batch should take zero time")
	}
}
