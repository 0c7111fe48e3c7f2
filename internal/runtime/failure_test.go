package runtime

import (
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/tier"
)

func TestPFSStoreFailureInjection(t *testing.T) {
	ds, _ := dataset.Generate(dataset.Spec{
		Name: "f", NumSamples: 10, MeanSize: 1 << 10, Classes: 1, Seed: 3,
	})
	store := NewPFSStore(ds, 3, tier.ThetaGPULike().PFS, 0.0001)
	store.SetFault(chaos.Fault{ErrRate: 1})
	if _, err := store.Read(0); !errors.Is(err, ErrTransient) {
		t.Fatalf("expected injected failure, got %v", err)
	}
	if store.Failures() != 1 {
		t.Fatalf("failures = %d, want 1", store.Failures())
	}
	store.SetFault(chaos.Fault{})
	if _, err := store.Read(0); err != nil {
		t.Fatalf("read after clearing the fault: %v", err)
	}
}

func TestTrainingSurvivesTransientPFSFailures(t *testing.T) {
	opts := testOptions(t, loader.NoPFS(2, 8), 1, 2)
	// 15% of PFS reads time out, from before the first iteration until
	// after the last.
	totalIters := opts.Epochs * opts.Dataset.Len() / (2 * opts.Model.BatchSize)
	ctl, err := chaos.NewController(chaos.NewSchedule(1).Brownout(0, totalIters+1, 0, 0, 0.15))
	if err != nil {
		t.Fatal(err)
	}
	opts.Chaos = ctl
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(stats.Iterations) * uint64(2*opts.Model.BatchSize)
	if stats.SamplesVerified != want {
		t.Fatalf("verified %d/%d under failure injection", stats.SamplesVerified, want)
	}
	checkOracle(t, opts, stats)
	if stats.PFSRetries == 0 {
		t.Fatal("no retries recorded despite 15% failure rate")
	}
}
