package experiments_test

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// Example runs the smallest possible simulated comparison: Lobster vs the
// PyTorch DataLoader baseline on one node.
func Example() {
	var times = map[string]float64{}
	for _, strategy := range []string{"pytorch", "lobster"} {
		cfg, err := experiments.NewConfig(experiments.Workload{
			Scale:    "tiny",
			Epochs:   4,
			Strategy: strategy,
			Seed:     7,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := pipeline.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		times[strategy] = res.Metrics.TotalTime
	}
	fmt.Printf("lobster faster: %v\n", times["lobster"] < times["pytorch"])
	// Output:
	// lobster faster: true
}
