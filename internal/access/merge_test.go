package access

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/sampler"
)

func twoJobPlans(t *testing.T) (*Plan, *Plan, *sampler.Schedule, *sampler.Schedule, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "share", NumSamples: 1200, MeanSize: 1000, Classes: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two jobs over the same data, different shuffles (different seeds).
	sa, err := sampler.New(ds, sampler.Config{WorldSize: 2, BatchSize: 10, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sampler.New(ds, sampler.Config{WorldSize: 2, BatchSize: 10, Seed: 200})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 3
	pa, err := Build(sa, 0, 2, epochs, 0)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Build(sb, 0, 2, epochs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pa, pb, sa, sb, ds
}

func TestMergePlansValidation(t *testing.T) {
	if _, err := MergePlans(); err == nil {
		t.Error("empty merge accepted")
	}
	pa, _, sa, _, _ := twoJobPlans(t)
	short, err := Build(sa, 0, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergePlans(pa, short); err == nil {
		t.Error("mismatched epoch counts accepted")
	}
}

func TestMergePlansUnionSemantics(t *testing.T) {
	pa, pb, _, _, ds := twoJobPlans(t)
	merged, err := MergePlans(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < ds.Len(); id++ {
		sid := dataset.SampleID(id)
		la, lb := pa.AccessesOf(sid), pb.AccessesOf(sid)
		lm := merged.AccessesOf(sid)
		if len(lm) != len(la)+len(lb) {
			t.Fatalf("sample %d: merged %d accesses, want %d+%d", id, len(lm), len(la), len(lb))
		}
		for i := 1; i < len(lm); i++ {
			if lm[i] < lm[i-1] {
				t.Fatalf("sample %d: merged list not sorted", id)
			}
		}
		// Remaining-use counts are additive.
		if merged.UsesRemaining(sid, -1) != pa.UsesRemaining(sid, -1)+pb.UsesRemaining(sid, -1) {
			t.Fatalf("sample %d: UsesRemaining not additive", id)
		}
		// NextUse is the min of the two plans' next uses.
		na, nb := pa.NextUse(sid, -1), pb.NextUse(sid, -1)
		want := na
		if na == NoAccess || (nb != NoAccess && nb < na) {
			want = nb
		}
		if got := merged.NextUse(sid, -1); got != want {
			t.Fatalf("sample %d: merged NextUse %d, want %d", id, got, want)
		}
	}
}

// TestSharedCacheMergedOracleWins replays two interleaved jobs against one
// shared cache and compares the Lobster policy driven by the merged plan
// with the same policy driven by only job A's plan (blind to job B).
// The merged oracle must hit more: it knows a sample job A is finished
// with is still needed by job B.
func TestSharedCacheMergedOracleWins(t *testing.T) {
	pa, pb, sa, sb, ds := twoJobPlans(t)
	merged, err := MergePlans(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	replay := func(oracle cache.Oracle) float64 {
		c, err := cache.New(ds.TotalBytes()/4, cache.NewLobster(oracle, cache.LobsterOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		var batch []dataset.SampleID
		const epochs = 3
		for epoch := 0; epoch < epochs; epoch++ {
			for it := 0; it < sa.IterationsPerEpoch(); it++ {
				now := cache.Iter(epoch*sa.IterationsPerEpoch() + it)
				// Both jobs access the shared cache in the same iteration.
				for _, s := range []*sampler.Schedule{sa, sb} {
					batch = s.NodeBatch(batch[:0], epoch, it, 0, 2)
					for _, id := range batch {
						if !c.Get(id, now) {
							c.Put(id, ds.Size(id), now)
						}
					}
				}
				c.Maintain(now)
			}
		}
		return c.Stats().HitRatio()
	}
	mergedHit := replay(merged)
	blindHit := replay(pa)
	t.Logf("merged oracle hit %.3f vs single-job oracle %.3f", mergedHit, blindHit)
	if mergedHit <= blindHit {
		t.Fatalf("merged oracle (%.3f) not better than job-A-only oracle (%.3f)", mergedHit, blindHit)
	}
}
