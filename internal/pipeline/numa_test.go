package pipeline

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestAssignValidation(t *testing.T) {
	if _, err := assignNUMA(0, 4, []int{1}, 1, true); err == nil {
		t.Error("zero domains accepted")
	}
	if _, err := assignNUMA(2, 0, []int{1}, 1, true); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestAwarePlacementCoLocates(t *testing.T) {
	// 8 GPUs x 2 loading threads + 6 preproc on 2 domains of 12 slots.
	loading := []int{2, 2, 2, 2, 2, 2, 2, 2}
	p, err := assignNUMA(2, 12, loading, 6, true)
	if err != nil {
		t.Fatal(err)
	}
	// GPUs 0-3 on domain 0, GPUs 4-7 on domain 1.
	for j := 0; j < 4; j++ {
		if p.LoadingDomain[j][0] != 2 || p.LoadingDomain[j][1] != 0 {
			t.Fatalf("GPU %d placement %v, want domain 0", j, p.LoadingDomain[j])
		}
	}
	for j := 4; j < 8; j++ {
		if p.LoadingDomain[j][1] != 2 {
			t.Fatalf("GPU %d placement %v, want domain 1", j, p.LoadingDomain[j])
		}
	}
	// Preprocessing split evenly (loading is even).
	if p.PreprocDomain[0] != 3 || p.PreprocDomain[1] != 3 {
		t.Fatalf("preproc placement %v, want [3 3]", p.PreprocDomain)
	}
	// Balanced bytes => no cross traffic.
	bytes := make([]int64, 8)
	for j := range bytes {
		bytes[j] = 1000
	}
	if f := crossTrafficFraction(p, bytes); f > 1e-9 {
		t.Fatalf("aware placement crosses %.3f of traffic, want 0", f)
	}
}

func TestNaivePlacementCrosses(t *testing.T) {
	// Naive: 16 loading threads fill domain 0 (12 slots) and spill 4 onto
	// domain 1; the 6 preproc threads land after the loading spill.
	loading := []int{2, 2, 2, 2, 2, 2, 2, 2}
	p, err := assignNUMA(2, 12, loading, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	bytes := make([]int64, 8)
	for j := range bytes {
		bytes[j] = 1000
	}
	f := crossTrafficFraction(p, bytes)
	if f <= 0.1 {
		t.Fatalf("naive placement crosses only %.3f of traffic; expected substantial crossing", f)
	}
	// The aware placement must strictly beat it.
	aware, _ := assignNUMA(2, 12, loading, 6, true)
	if fa := crossTrafficFraction(aware, bytes); fa >= f {
		t.Fatalf("aware %.3f not below naive %.3f", fa, f)
	}
}

func TestSingleDomainNoCrossing(t *testing.T) {
	p, err := assignNUMA(1, 24, []int{2, 2}, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if f := crossTrafficFraction(p, []int64{100, 100}); f != 0 {
		t.Fatalf("single domain crossed %.3f", f)
	}
}

func TestPenaltyShape(t *testing.T) {
	if numaPenalty(0) != 1 {
		t.Fatal("zero crossing must be penalty-free")
	}
	if p := numaPenalty(1); p >= 1 || p < 0.5 {
		t.Fatalf("full crossing penalty %.3f outside (0.5, 1)", p)
	}
	// More crossing => lower throughput factor.
	if numaPenalty(0.5) >= numaPenalty(0.2) {
		t.Fatal("penalty not monotone decreasing in cross traffic")
	}
}

func TestCrossTrafficProperties(t *testing.T) {
	f := func(seed uint64, gpusRaw, domRaw uint8, aware bool) bool {
		gpus := int(gpusRaw%8) + 1
		domains := int(domRaw%4) + 1
		loading := make([]int, gpus)
		bytes := make([]int64, gpus)
		for j := range loading {
			loading[j] = int(seed>>uint(j)%3) + 1
			bytes[j] = int64(1000 + j*137)
		}
		p, err := assignNUMA(domains, 8, loading, 6, aware)
		if err != nil {
			return false
		}
		frac := crossTrafficFraction(p, bytes)
		if frac < -1e-9 || frac > 1+1e-9 {
			return false
		}
		// Total preproc and loading threads are conserved.
		pre := 0
		for _, n := range p.PreprocDomain {
			pre += n
		}
		if pre != 6 {
			return false
		}
		for j := range loading {
			sum := 0
			for _, n := range p.LoadingDomain[j] {
				sum += n
			}
			if sum != loading[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAwareWinsOnAverage: aware placement is a heuristic — with uneven
// per-GPU byte loads a lucky naive packing can occasionally cross less —
// but across random workloads that do not fit one socket it must win
// decisively in aggregate and rarely lose by much.
func TestAwareWinsOnAverage(t *testing.T) {
	r := stats.NewRNG(99)
	var sumAware, sumNaive float64
	losses, cases := 0, 0
	for trial := 0; trial < 500; trial++ {
		gpus := r.Intn(6) + 3
		loading := make([]int, gpus)
		bytes := make([]int64, gpus)
		total := 0
		for j := range loading {
			loading[j] = r.Intn(3) + 2
			total += loading[j]
			bytes[j] = int64(500 + r.Intn(2000))
		}
		const perDomain = 8
		if total+6 <= perDomain {
			continue
		}
		aware, err := assignNUMA(2, perDomain, loading, 6, true)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := assignNUMA(2, perDomain, loading, 6, false)
		if err != nil {
			t.Fatal(err)
		}
		fa := crossTrafficFraction(aware, bytes)
		fn := crossTrafficFraction(naive, bytes)
		sumAware += fa
		sumNaive += fn
		if fa > fn+0.05 {
			losses++
		}
		cases++
	}
	if cases == 0 {
		t.Fatal("no oversubscribed cases sampled")
	}
	t.Logf("mean cross traffic: aware %.3f vs naive %.3f over %d cases (losses beyond 5pp: %d)",
		sumAware/float64(cases), sumNaive/float64(cases), cases, losses)
	if sumAware >= sumNaive*0.7 {
		t.Fatalf("aware placement (%.3f mean) not clearly below naive (%.3f mean)",
			sumAware/float64(cases), sumNaive/float64(cases))
	}
	if losses*10 > cases {
		t.Fatalf("aware lost by >5pp in %d/%d cases", losses, cases)
	}
}

func TestAwareFitsOneSocketPacks(t *testing.T) {
	p, err := assignNUMA(2, 24, []int{1, 1}, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.LoadingDomain[0][0] != 1 || p.LoadingDomain[1][0] != 1 || p.PreprocDomain[0] != 4 {
		t.Fatalf("small pipeline not packed onto one socket: %+v", p)
	}
	if f := crossTrafficFraction(p, []int64{100, 100}); f != 0 {
		t.Fatalf("packed placement crosses %.3f", f)
	}
}

func TestOversubscriptionStaysDefined(t *testing.T) {
	// More threads than slots: placement must still conserve counts.
	p, err := assignNUMA(2, 2, []int{5, 5}, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []int{5, 5} {
		sum := 0
		for _, n := range p.LoadingDomain[j] {
			sum += n
		}
		if sum != want {
			t.Fatalf("GPU %d lost threads: %v", j, p.LoadingDomain[j])
		}
	}
	f := crossTrafficFraction(p, []int64{100, 100})
	if math.IsNaN(f) || f < 0 || f > 1 {
		t.Fatalf("cross fraction %v", f)
	}
}
