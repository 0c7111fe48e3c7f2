package sampler

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func testDataset(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "t", NumSamples: n, MeanSize: 1024, SigmaLog: 0.3, Classes: 4, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewValidation(t *testing.T) {
	ds := testDataset(t, 100)
	if _, err := New(nil, Config{WorldSize: 1, BatchSize: 1}); err == nil {
		t.Error("nil dataset accepted")
	}
	if _, err := New(ds, Config{WorldSize: 0, BatchSize: 1}); err == nil {
		t.Error("zero world accepted")
	}
	if _, err := New(ds, Config{WorldSize: 1, BatchSize: 0}); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := New(ds, Config{WorldSize: 64, BatchSize: 8}); err == nil {
		t.Error("dataset smaller than one global batch accepted")
	}
}

func TestIterationsPerEpoch(t *testing.T) {
	ds := testDataset(t, 1000)
	s, err := New(ds, Config{WorldSize: 4, BatchSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// floor(1000 / (32*4)) = 7
	if got := s.IterationsPerEpoch(); got != 7 {
		t.Fatalf("I = %d, want 7", got)
	}
	if got := s.SamplesPerEpoch(); got != 7*32*4 {
		t.Fatalf("SamplesPerEpoch = %d, want %d", got, 7*32*4)
	}
}

func TestEpochPermIsPermutation(t *testing.T) {
	ds := testDataset(t, 500)
	s, _ := New(ds, Config{WorldSize: 2, BatchSize: 10, Seed: 3})
	for _, epoch := range []int{0, 1, 7} {
		perm := s.EpochPerm(epoch)
		seen := make([]bool, 500)
		for _, id := range perm {
			if seen[id] {
				t.Fatalf("epoch %d: duplicate id %d", epoch, id)
			}
			seen[id] = true
		}
	}
}

func TestEpochPermsDiffer(t *testing.T) {
	ds := testDataset(t, 500)
	s, _ := New(ds, Config{WorldSize: 2, BatchSize: 10, Seed: 3})
	a := s.EpochPerm(0)
	b := s.EpochPerm(1)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if float64(same)/float64(len(a)) > 0.05 {
		t.Fatalf("epochs 0 and 1 share %d/%d positions", same, len(a))
	}
}

func TestScheduleDeterministicAcrossInstances(t *testing.T) {
	ds := testDataset(t, 400)
	cfg := Config{WorldSize: 4, BatchSize: 8, Seed: 99}
	s1, _ := New(ds, cfg)
	s2, _ := New(ds, cfg)
	for epoch := 0; epoch < 3; epoch++ {
		for iter := 0; iter < s1.IterationsPerEpoch(); iter++ {
			for rank := 0; rank < 4; rank++ {
				b1 := s1.Batch(nil, epoch, iter, rank)
				b2 := s2.Batch(nil, epoch, iter, rank)
				for k := range b1 {
					if b1[k] != b2[k] {
						t.Fatalf("batch(%d,%d,%d) differs at %d", epoch, iter, rank, k)
					}
				}
			}
		}
	}
}

func TestBatchesPartitionEpoch(t *testing.T) {
	// Within an epoch, every consumed sample appears exactly once across
	// all (iteration, rank) batches — data parallelism processes disjoint
	// mini-batches.
	ds := testDataset(t, 333)
	s, _ := New(ds, Config{WorldSize: 3, BatchSize: 11, Seed: 5})
	counts := map[dataset.SampleID]int{}
	for iter := 0; iter < s.IterationsPerEpoch(); iter++ {
		for rank := 0; rank < 3; rank++ {
			for _, id := range s.Batch(nil, 2, iter, rank) {
				counts[id]++
			}
		}
	}
	if len(counts) != s.SamplesPerEpoch() {
		t.Fatalf("distinct samples = %d, want %d", len(counts), s.SamplesPerEpoch())
	}
	for id, c := range counts {
		if c != 1 {
			t.Fatalf("sample %d consumed %d times in one epoch", id, c)
		}
	}
}

func TestBatchPanicsOutOfRange(t *testing.T) {
	ds := testDataset(t, 100)
	s, _ := New(ds, Config{WorldSize: 2, BatchSize: 5, Seed: 1})
	for _, fn := range []func(){
		func() { s.Batch(nil, 0, s.IterationsPerEpoch(), 0) },
		func() { s.Batch(nil, 0, -1, 0) },
		func() { s.Batch(nil, 0, 0, 2) },
		func() { s.Batch(nil, 0, 0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range Batch did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestNodeBatchConcatenatesGPUs(t *testing.T) {
	ds := testDataset(t, 256)
	s, _ := New(ds, Config{WorldSize: 4, BatchSize: 4, Seed: 7})
	nb := s.NodeBatch(nil, 0, 0, 1, 2) // node 1 of 2, gpusPerNode=2 -> ranks 2,3
	want := append(s.Batch(nil, 0, 0, 2), s.Batch(nil, 0, 0, 3)...)
	if len(nb) != len(want) {
		t.Fatalf("NodeBatch len %d, want %d", len(nb), len(want))
	}
	for i := range nb {
		if nb[i] != want[i] {
			t.Fatalf("NodeBatch[%d] = %d, want %d", i, nb[i], want[i])
		}
	}
}

func TestPermCacheRevisit(t *testing.T) {
	ds := testDataset(t, 150)
	s, _ := New(ds, Config{WorldSize: 1, BatchSize: 10, Seed: 17})
	a0 := s.EpochPerm(0)
	_ = s.EpochPerm(1)
	_ = s.EpochPerm(2) // evicts epoch 0 from the 2-slot cache
	b0 := s.EpochPerm(0)
	for i := range a0 {
		if a0[i] != b0[i] {
			t.Fatal("re-generated epoch perm differs from original")
		}
	}
}

func TestSchedulePropertyPartition(t *testing.T) {
	f := func(seed uint64, worldRaw, batchRaw uint8) bool {
		world := int(worldRaw%4) + 1
		batch := int(batchRaw%8) + 1
		ds, err := dataset.Generate(dataset.Spec{
			Name: "q", NumSamples: 200, MeanSize: 100, Classes: 1, Seed: seed,
		})
		if err != nil {
			return false
		}
		s, err := New(ds, Config{WorldSize: world, BatchSize: batch, Seed: seed})
		if err != nil {
			return false
		}
		seen := map[dataset.SampleID]bool{}
		for iter := 0; iter < s.IterationsPerEpoch(); iter++ {
			for rank := 0; rank < world; rank++ {
				for _, id := range s.Batch(nil, 0, iter, rank) {
					if seen[id] {
						return false
					}
					seen[id] = true
				}
			}
		}
		return len(seen) == s.SamplesPerEpoch()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
