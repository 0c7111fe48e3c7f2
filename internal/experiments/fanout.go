package experiments

import (
	"repro/internal/par"
	"repro/internal/pipeline"
)

// runAll executes a set of independent simulation campaigns, fanning out
// over p.Pool (nil = serial). Every campaign carries its own seeded RNGs
// inside pipeline.Run, and results are slotted by config index, so the
// returned slice — and hence every rendered report — is identical for any
// pool width. Rendering stays with the caller, after all campaigns finish,
// which keeps report lines in figure order regardless of completion order.
func runAll(p Params, cfgs []pipeline.Config) ([]*pipeline.Result, error) {
	return par.Map(p.Pool, len(cfgs), func(i int) (*pipeline.Result, error) {
		cfg := cfgs[i]
		cfg.Pool = p.Pool
		return pipeline.Run(cfg)
	})
}

// runAllTrain is runAll for accuracy-tracking campaigns (pipeline.Train).
func runAllTrain(p Params, cfgs []pipeline.Config) ([]*pipeline.Campaign, error) {
	return par.Map(p.Pool, len(cfgs), func(i int) (*pipeline.Campaign, error) {
		cfg := cfgs[i]
		cfg.Pool = p.Pool
		return pipeline.Train(cfg)
	})
}
