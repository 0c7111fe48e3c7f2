package perfmodel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/preproc"
	"repro/internal/stats"
	"repro/internal/tier"
)

// refSplitThreads, refLoadTimeParts and refSampleTime are the model
// functions as they stood when they took the hierarchy by value, went
// through Hierarchy.ReadTime's tier switch and scanned the portfolio's
// sizes twice — kept verbatim as the oracle of TestModelMatchesReference.

func refSplitThreads(h tier.Hierarchy, pl BatchPlacement, n int, activeNodes int) ThreadAlloc {
	if n <= 0 {
		return ThreadAlloc{}
	}
	wLocal := h.ReadTime(tier.Local, pl.LocalBytes, pl.LocalOps, 1, activeNodes)
	wRemote := h.ReadTime(tier.Remote, pl.RemoteBytes, pl.RemoteOps, 1, activeNodes)
	wPFS := h.ReadTime(tier.PFS, pl.PFSBytes, pl.PFSOps, 1, activeNodes)
	total := wLocal + wRemote + wPFS
	var alloc ThreadAlloc
	if total <= 0 {
		alloc.Local = n
		return alloc
	}
	assign := func(w float64, ops int) int {
		if ops == 0 {
			return 0
		}
		k := int(math.Round(w / total * float64(n)))
		if k < 1 {
			k = 1
		}
		return k
	}
	alloc.Local = assign(wLocal, pl.LocalOps)
	alloc.Remote = assign(wRemote, pl.RemoteOps)
	alloc.PFS = assign(wPFS, pl.PFSOps)
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

func refLoadTimeParts(h tier.Hierarchy, pl BatchPlacement, alloc ThreadAlloc, activeNodes int) (local, remote, pfs float64) {
	total := alloc.Total()
	if total == 0 {
		if pl.TotalOps() > 0 {
			inf := math.Inf(1)
			return inf, inf, inf
		}
		return 0, 0, 0
	}
	threadsFor := func(dedicated, ops int) int {
		if ops == 0 {
			return dedicated
		}
		if dedicated == 0 {
			return total
		}
		return dedicated
	}
	local = h.ReadTime(tier.Local, pl.LocalBytes, pl.LocalOps, threadsFor(alloc.Local, pl.LocalOps), activeNodes)
	remote = h.ReadTime(tier.Remote, pl.RemoteBytes, pl.RemoteOps, threadsFor(alloc.Remote, pl.RemoteOps), activeNodes)
	pfs = h.ReadTime(tier.PFS, pl.PFSBytes, pl.PFSOps, threadsFor(alloc.PFS, pl.PFSOps), activeNodes)
	return local, remote, pfs
}

func (p *PreprocPortfolio) refModelFor(size int64) *stats.PiecewiseLinear {
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
	return p.models[best]
}

func (p *PreprocPortfolio) refClosestSize(size int64) int64 {
	best, bestDiff := int64(0), int64(math.MaxInt64)
	for _, s := range p.sizes {
		d := s - size
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			best, bestDiff = s, d
		}
	}
	return best
}

func (p *PreprocPortfolio) refSampleTime(size int64, n int) float64 {
	t := p.refModelFor(size).Eval(float64(n))
	bucket := p.refClosestSize(size)
	if bucket > 0 {
		t *= float64(size) / float64(bucket)
	}
	return t
}

// TestModelMatchesReference: the thread split, the three Equation 1 terms
// and the per-sample preprocessing time equal the reference's bit for bit
// over random placements (tiers with no ops, bytes without ops, more
// tiers than threads), thread counts from 0 and 1 to 16 sharing nodes.
func TestModelMatchesReference(t *testing.T) {
	h := tier.ThetaGPULike()
	pm := preproc.DefaultModel()
	portfolio, err := FitPortfolio(nil, []int64{16 << 10, 64 << 10, 105 << 10, 512 << 10}, 24, 6,
		func(size int64, threads int) float64 { return pm.Time(size, threads) })
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(20))
	tierLoad := func() (bytes int64, ops int) {
		switch r.Intn(4) {
		case 0:
			return 0, 0
		case 1:
			return int64(r.Intn(1 << 20)), 0 // bytes without ops: never built, must still agree
		default:
			ops = 1 + r.Intn(64)
			return int64(ops) * int64(1+r.Intn(200<<10)), ops
		}
	}
	bits := math.Float64bits
	for c := 0; c < 20000; c++ {
		var pl BatchPlacement
		pl.LocalBytes, pl.LocalOps = tierLoad()
		pl.RemoteBytes, pl.RemoteOps = tierLoad()
		pl.PFSBytes, pl.PFSOps = tierLoad()
		n, active := r.Intn(34)-1, r.Intn(17)
		got, want := SplitThreads(&h, pl, n, active), refSplitThreads(h, pl, n, active)
		if got != want {
			t.Fatalf("SplitThreads(%+v, %d, %d) = %+v, reference %+v", pl, n, active, got, want)
		}
		for _, alloc := range []ThreadAlloc{got, {Local: r.Intn(3), Remote: r.Intn(3), PFS: r.Intn(3)}} {
			l, rm, p := LoadTimeParts(&h, pl, alloc, active)
			wl, wr, wp := refLoadTimeParts(h, pl, alloc, active)
			if bits(l) != bits(wl) || bits(rm) != bits(wr) || bits(p) != bits(wp) {
				t.Fatalf("LoadTimeParts(%+v, %+v, %d) = %g %g %g, reference %g %g %g", pl, alloc, active, l, rm, p, wl, wr, wp)
			}
		}
		size := int64(1 + r.Intn(1<<20))
		if got, want := portfolio.SampleTime(size, n), portfolio.refSampleTime(size, n); bits(got) != bits(want) {
			t.Fatalf("SampleTime(%d, %d) = %g, reference %g", size, n, got, want)
		}
	}
}
