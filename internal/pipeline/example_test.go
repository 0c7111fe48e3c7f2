package pipeline_test

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// ExampleBuildPlan shows the offline planner producing a serializable
// thread plan (Section 4.5 of the paper).
func ExampleBuildPlan() {
	cfg, err := experiments.NewConfig(experiments.Workload{Scale: "tiny", Epochs: 2, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := pipeline.BuildPlan(cfg, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("planned %d iterations for %d node(s), %d GPUs each\n",
		len(plan.File.Iterations), plan.File.Nodes, plan.File.GPUsPerNode)
	// Output:
	// planned 4 iterations for 1 node(s), 8 GPUs each
}
