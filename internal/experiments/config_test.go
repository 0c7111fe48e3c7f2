package experiments

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/runtime"
)

// onlineOptions runs a simulator config on the online runtime at the given
// time scale, following pf's thread plan when it is non-nil.
func onlineOptions(cfg pipeline.Config, timeScale float64, pf *plan.Plan) runtime.Options {
	return runtime.Options{
		Topology:   cfg.Topology,
		Dataset:    cfg.Dataset,
		Model:      cfg.Model,
		Epochs:     cfg.Epochs,
		Seed:       cfg.Seed,
		Strategy:   cfg.Strategy,
		TimeScale:  timeScale,
		ThreadPlan: pf,
	}
}

func TestNewConfigDefaults(t *testing.T) {
	cfg, err := NewConfig(Workload{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dataset == nil || cfg.Epochs != 10 ||
		cfg.Topology.Nodes != 1 || cfg.Strategy.Name != "lobster" {
		t.Fatalf("defaults wrong: %+v", cfg.Strategy)
	}
	if cfg.Model.Name != "resnet50" {
		t.Fatalf("default model %q", cfg.Model.Name)
	}
}

func TestNewConfigErrors(t *testing.T) {
	bad := []Workload{
		{Scale: "galactic"},
		{Scale: "tiny", Dataset: "cifar"},
		{Scale: "tiny", Model: "transformer"},
		{Scale: "tiny", Strategy: "magic"},
	}
	for _, w := range bad {
		if _, err := NewConfig(w); err == nil {
			t.Errorf("workload %+v accepted", w)
		}
	}
}

func TestSimulateSmoke(t *testing.T) {
	cfg, err := NewConfig(Workload{Scale: "tiny", Epochs: 2, Strategy: "lobster"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.TotalTime <= 0 || res.Metrics.Iterations == 0 {
		t.Fatalf("degenerate simulation: %+v", res.Metrics)
	}
}

func TestTrainAttachesAccuracy(t *testing.T) {
	cfg, err := NewConfig(Workload{Scale: "tiny", Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipeline.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Curve) != 3 || c.FinalAccuracy() <= 0 {
		t.Fatalf("bad campaign: %d points", len(c.Curve))
	}
}

func TestRunOnlineSmoke(t *testing.T) {
	cfg, err := NewConfig(Workload{Scale: "tiny", Epochs: 1, Strategy: "nopfs"})
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the run: online time is real. One epoch at tiny scale with a
	// fast time scale.
	cfg.Epochs = 1
	stats, err := runtime.Run(onlineOptions(cfg, 0.001, nil))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SamplesVerified == 0 || stats.SamplesVerified != stats.SamplesLoaded {
		t.Fatalf("verification incomplete: %d/%d", stats.SamplesVerified, stats.SamplesLoaded)
	}
}

func TestRunOnlineWithPlan(t *testing.T) {
	cfg, err := NewConfig(Workload{Scale: "tiny", Epochs: 1, Strategy: "lobster"})
	if err != nil {
		t.Fatal(err)
	}
	built, err := pipeline.BuildPlan(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runtime.Run(onlineOptions(cfg, 0.001, built.File))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SamplesVerified == 0 || stats.SamplesVerified != stats.SamplesLoaded {
		t.Fatalf("plan-following run incomplete: %d/%d", stats.SamplesVerified, stats.SamplesLoaded)
	}
	// The final threads must come from the plan's wrap window, not the
	// live controller: check they match some planned assignment.
	last := built.File.ThreadsAt(stats.Iterations - 1)
	if stats.FinalPreprocThreads[0] != last[0].Preproc {
		t.Fatalf("final preproc %d, plan says %d", stats.FinalPreprocThreads[0], last[0].Preproc)
	}
}

func TestNewConfigImageNet22K(t *testing.T) {
	cfg, err := NewConfig(Workload{Scale: "tiny", Dataset: "imagenet-22k", Epochs: 1, CacheRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dataset.Name() != "imagenet-22k" {
		t.Fatalf("dataset %q", cfg.Dataset.Name())
	}
	wantCache := int64(float64(cfg.Dataset.TotalBytes()) * 0.1)
	if diff := cfg.Topology.CacheBytes - wantCache; diff < -1 || diff > 1 {
		t.Fatalf("cache override not applied: %d vs %d", cfg.Topology.CacheBytes, wantCache)
	}
}
