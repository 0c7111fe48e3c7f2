package pipeline

import (
	"testing"

	"repro/internal/loader"
)

func TestBuildPlan(t *testing.T) {
	cfg := testConfig(t, loader.Lobster(), 2)
	plan, err := BuildPlan(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PerIteration) != 5 {
		t.Fatalf("plan has %d iterations, want 5", len(plan.PerIteration))
	}
	for _, rec := range plan.PerIteration {
		if len(rec.Threads) != 1 {
			t.Fatalf("plan lacks thread decisions: %+v", rec.Threads)
		}
		th := rec.Threads[0]
		if th.Preproc < 1 || len(th.Loading) != 8 {
			t.Fatalf("bad thread record: %+v", th)
		}
		total := th.Preproc
		for _, l := range th.Loading {
			total += l
		}
		if total > cfg.Topology.CPUThreads {
			t.Fatalf("plan exceeds thread budget: %d > %d", total, cfg.Topology.CPUThreads)
		}
	}
}
