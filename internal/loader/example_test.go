package loader_test

import (
	"fmt"
	"log"

	"repro/internal/loader"
)

// ExampleStrategyByName resolves the paper's comparison systems.
func ExampleStrategyByName() {
	for _, name := range loader.Strategies() {
		spec, err := loader.StrategyByName(name, 8, 24)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(spec.Name)
	}
	// Output:
	// pytorch
	// dali
	// nopfs
	// lobster
	// lobster_th
	// lobster_evict
}
