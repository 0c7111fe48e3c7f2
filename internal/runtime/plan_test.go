package runtime

import (
	"testing"

	"repro/internal/loader"
	"repro/internal/plan"
)

func testPlanFile(nodes, gpus, iters, itersPerEpoch int) *plan.Plan {
	p := &plan.Plan{
		Version:            plan.Version,
		Strategy:           "lobster",
		Nodes:              nodes,
		GPUsPerNode:        gpus,
		IterationsPerEpoch: itersPerEpoch,
	}
	for h := 0; h < iters; h++ {
		it := plan.Iteration{Epoch: h / itersPerEpoch, Iter: h % itersPerEpoch}
		for n := 0; n < nodes; n++ {
			loading := make([]int, gpus)
			for j := range loading {
				loading[j] = 3 // distinctive value the controller would not pick
			}
			it.Threads = append(it.Threads, plan.NodeThreads{Preproc: 2, Loading: loading})
		}
		p.Iterations = append(p.Iterations, it)
	}
	return p
}

func TestPlanFollowingMode(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 1, 2)
	opts.ThreadPlan = testPlanFile(1, 2, 4, 4)
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	// The runtime must end on the plan's assignment, not a controller
	// decision.
	if stats.FinalPreprocThreads[0] != 2 {
		t.Fatalf("final preproc threads %d, want planned 2", stats.FinalPreprocThreads[0])
	}
	for _, l := range stats.FinalLoadThreads[0] {
		if l != 3 {
			t.Fatalf("final loading threads %v, want all planned 3", stats.FinalLoadThreads[0])
		}
	}
	want := uint64(stats.Iterations) * uint64(2*opts.Model.BatchSize)
	if stats.SamplesVerified != want {
		t.Fatalf("verified %d, want %d", stats.SamplesVerified, want)
	}
}

func TestPlanTopologyMismatchRejected(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 1, 1)
	opts.ThreadPlan = testPlanFile(2, 2, 4, 4) // two nodes, run has one
	if _, err := Run(opts); err == nil {
		t.Fatal("mismatched plan accepted")
	}
	opts.ThreadPlan = testPlanFile(1, 2, 0, 4) // invalid (no iterations)
	if _, err := Run(opts); err == nil {
		t.Fatal("invalid plan accepted")
	}
}
