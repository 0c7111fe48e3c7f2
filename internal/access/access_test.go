package access

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/sampler"
)

func testSchedule(t testing.TB, n, world, batch int) *sampler.Schedule {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "a", NumSamples: n, MeanSize: 1024, Classes: 2, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampler.New(ds, sampler.Config{WorldSize: world, BatchSize: batch, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildValidation(t *testing.T) {
	s := testSchedule(t, 200, 4, 5)
	if _, err := Build(nil, 0, 1, 1, 0); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := Build(s, -1, 1, 1, 0); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := Build(s, 2, 2, 1, 0); err == nil {
		t.Error("node beyond world accepted")
	}
	if _, err := Build(s, 0, 2, 0, 0); err == nil {
		t.Error("zero epochs accepted")
	}
}

func TestAccessListsMatchSchedule(t *testing.T) {
	s := testSchedule(t, 200, 4, 5)
	const epochs = 3
	p, err := Build(s, 1, 2, epochs, 0) // node 1 of 2 nodes x 2 GPUs
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct accesses directly and compare.
	want := map[dataset.SampleID][]Iter{}
	for epoch := 0; epoch < epochs; epoch++ {
		for it := 0; it < s.IterationsPerEpoch(); it++ {
			g := Iter(epoch*s.IterationsPerEpoch() + it)
			for _, id := range s.NodeBatch(nil, epoch, it, 1, 2) {
				want[id] = append(want[id], g)
			}
		}
	}
	for id, w := range want {
		got := p.AccessesOf(id)
		if len(got) != len(w) {
			t.Fatalf("sample %d: %d accesses, want %d", id, len(got), len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("sample %d access %d = %d, want %d", id, i, got[i], w[i])
			}
		}
	}
}

func TestAccessListsAscending(t *testing.T) {
	s := testSchedule(t, 300, 2, 10)
	p, err := Build(s, 0, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 300; id++ {
		list := p.AccessesOf(dataset.SampleID(id))
		for i := 1; i < len(list); i++ {
			if list[i] <= list[i-1] {
				t.Fatalf("sample %d access list not strictly ascending: %v", id, list)
			}
		}
	}
}

func TestNextUse(t *testing.T) {
	s := testSchedule(t, 100, 1, 10) // single GPU: node sees every sample once per epoch
	p, err := Build(s, 0, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := dataset.SampleID(0)
	list := p.AccessesOf(id)
	if len(list) != 2 {
		t.Fatalf("sample 0 accessed %d times in 2 epochs, want 2", len(list))
	}
	if got := p.NextUse(id, -1); got != list[0] {
		t.Fatalf("NextUse(-1) = %d, want %d", got, list[0])
	}
	if got := p.NextUse(id, list[0]); got != list[1] {
		t.Fatalf("NextUse(%d) = %d, want %d", list[0], got, list[1])
	}
	if got := p.NextUse(id, list[1]); got != NoAccess {
		t.Fatalf("NextUse after last = %d, want NoAccess", got)
	}
}

func TestUsesRemaining(t *testing.T) {
	s := testSchedule(t, 100, 1, 10)
	const epochs = 5
	p, _ := Build(s, 0, 1, epochs, 0)
	id := dataset.SampleID(42)
	if got := p.UsesRemaining(id, -1); got != epochs {
		t.Fatalf("UsesRemaining(-1) = %d, want %d", got, epochs)
	}
	list := p.AccessesOf(id)
	for i, g := range list {
		if got := p.UsesRemaining(id, g); got != epochs-i-1 {
			t.Fatalf("UsesRemaining after access %d = %d, want %d", i, got, epochs-i-1)
		}
	}
}

func TestNextReuseDistance(t *testing.T) {
	s := testSchedule(t, 100, 1, 10)
	p, _ := Build(s, 0, 1, 3, 0)
	id := dataset.SampleID(7)
	list := p.AccessesOf(id)
	if d := p.NextUse(id, list[0]) - list[0]; d != list[1]-list[0] {
		t.Fatalf("reuse distance after the first access = %d, want %d", d, list[1]-list[0])
	}
	if got := p.NextUse(id, list[len(list)-1]); got != NoAccess {
		t.Fatalf("next use after last access = %d, want NoAccess", got)
	}
}

func TestHorizonBoundsLists(t *testing.T) {
	s := testSchedule(t, 100, 1, 10)
	p, err := Build(s, 0, 1, 10, 2) // plan 10 epochs, detail only 2
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalIterations() != Iter(10*s.IterationsPerEpoch()) {
		t.Fatalf("TotalIterations = %d", p.TotalIterations())
	}
	for id := 0; id < 100; id++ {
		if got := len(p.AccessesOf(dataset.SampleID(id))); got != 2 {
			t.Fatalf("sample %d has %d accesses with horizon 2, want 2", id, got)
		}
	}
}

func TestReuseDistanceHistogramLongDistances(t *testing.T) {
	// With a single node consuming the whole dataset each epoch, every
	// reuse distance is around I iterations — i.e., "long" in the paper's
	// sense (>= one epoch). This mirrors the Fig. 4 observation that most
	// samples have reuse distance around/above an epoch length.
	s := testSchedule(t, 1000, 1, 10) // I = 100
	p, _ := Build(s, 0, 1, 4, 0)
	h, err := p.ReuseDistanceHistogram(20)
	if err != nil {
		t.Fatal(err)
	}
	iters := float64(s.IterationsPerEpoch())
	// All reuse distances lie in (0, 2I): consecutive epoch accesses. The
	// tolerance absorbs linear apportioning within log-histogram bins.
	if frac := h.FractionAbove(2 * iters); frac > 0.05 {
		t.Fatalf("%.2f%% of distances above 2I, want ~0", frac*100)
	}
	if frac := h.FractionAbove(iters / 2); frac < 0.8 {
		t.Fatalf("only %.2f%% of distances above I/2, want most", frac*100)
	}
	mean, n := p.MeanReuseDistance()
	if n != 3*1000 {
		t.Fatalf("reuse pairs = %d, want 3000", n)
	}
	if mean < 0.5*iters || mean > 1.5*iters {
		t.Fatalf("mean reuse distance = %g, want ~I=%g", mean, iters)
	}
}

func TestMultiNodeFewerAccesses(t *testing.T) {
	// With 2 nodes, each node accesses ~half the samples per epoch, so
	// per-sample per-node access counts across E epochs average E/2.
	s := testSchedule(t, 400, 4, 10)
	const epochs = 8
	p0, _ := Build(s, 0, 2, epochs, 0)
	var total int
	for id := 0; id < 400; id++ {
		total += len(p0.AccessesOf(dataset.SampleID(id)))
	}
	wantTotal := epochs * s.SamplesPerEpoch() / 2 // half the world on node 0
	if total != wantTotal {
		t.Fatalf("node 0 total accesses = %d, want %d", total, wantTotal)
	}
}

func TestNextUsePropertyConsistent(t *testing.T) {
	s := testSchedule(t, 150, 1, 10)
	p, _ := Build(s, 0, 1, 3, 0)
	f := func(idRaw uint8, afterRaw int16) bool {
		id := dataset.SampleID(int(idRaw) % 150)
		after := Iter(afterRaw)
		next := p.NextUse(id, after)
		if next == NoAccess {
			return p.UsesRemaining(id, after) == 0
		}
		// next must be an actual access, strictly after `after`, and
		// UsesRemaining must count it.
		if next <= after || p.UsesRemaining(id, after) < 1 {
			return false
		}
		found := false
		for _, g := range p.AccessesOf(id) {
			if g == next {
				found = true
			}
			if g > after && g < next {
				return false // skipped an earlier access
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAllMatchesBuild: the all-nodes builder returns, for every node,
// exactly the plan the one-node builder returns — same lists for every
// sample, same geometry — and rejects the same invalid arguments.
func TestBuildAllMatchesBuild(t *testing.T) {
	const samples = 1000
	for _, nodes := range []int{1, 2, 4, 8} {
		for _, gpus := range []int{1, 4} {
			s := testSchedule(t, samples, nodes*gpus, 3)
			for _, epochs := range []int{1, 3, 7} {
				all, err := BuildAll(s, nodes, gpus, epochs, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(all) != nodes {
					t.Fatalf("%d nodes x %d GPUs: BuildAll returned %d plans", nodes, gpus, len(all))
				}
				for n, got := range all {
					want, err := Build(s, n, gpus, epochs, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got.Node() != n || got.IterationsPerEpoch() != want.IterationsPerEpoch() ||
						got.TotalIterations() != want.TotalIterations() || len(got.offsets) != len(want.offsets) {
						t.Fatalf("%d nodes x %d GPUs x %d epochs: node %d's plan has another geometry than Build's", nodes, gpus, epochs, n)
					}
					for id := dataset.SampleID(0); id < samples; id++ {
						g, w := got.AccessesOf(id), want.AccessesOf(id)
						if len(g) != len(w) {
							t.Fatalf("node %d sample %d: %v, Build has %v", n, id, g, w)
						}
						for i := range w {
							if g[i] != w[i] {
								t.Fatalf("node %d sample %d: %v, Build has %v", n, id, g, w)
							}
						}
					}
				}
			}
		}
	}

	// The invalid arguments of TestBuildValidation, in BuildAll's terms.
	s := testSchedule(t, 200, 4, 5)
	if _, err := BuildAll(nil, 1, 1, 1, 0); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := BuildAll(s, 0, 1, 1, 0); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := BuildAll(s, 3, 2, 1, 0); err == nil {
		t.Error("nodes beyond world accepted")
	}
	if _, err := BuildAll(s, 2, 0, 1, 0); err == nil {
		t.Error("zero GPUs per node accepted")
	}
	if _, err := BuildAll(s, 2, 2, 0, 0); err == nil {
		t.Error("zero epochs accepted")
	}
}

// TestFutureMatchesSeparateQueries: Future is NextUse and UsesRemaining of
// one search.
func TestFutureMatchesSeparateQueries(t *testing.T) {
	const samples, epochs = 400, 6
	s := testSchedule(t, samples, 4, 5)
	full, err := Build(s, 1, 2, epochs, 0)
	if err != nil {
		t.Fatal(err)
	}
	iters := s.IterationsPerEpoch()
	for epoch := 0; epoch < epochs; epoch++ {
		for _, after := range []Iter{Iter(epoch*iters) - 1, Iter(epoch * iters), Iter(epoch*iters + iters/2), Iter((epoch+1)*iters - 1)} {
			for id := dataset.SampleID(0); id < samples; id++ {
				if next, rem := full.Future(id, after); next != full.NextUse(id, after) || rem != full.UsesRemaining(id, after) {
					t.Fatalf("Plan.Future(%d, %d) = %d, %d; NextUse %d, UsesRemaining %d",
						id, after, next, rem, full.NextUse(id, after), full.UsesRemaining(id, after))
				}
			}
		}
	}
}
