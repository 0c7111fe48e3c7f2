package pipeline

import (
	"fmt"

	"repro/internal/plan"
)

// Plan is the offline planner's output for the first iterations of a run:
// the thread-management plan the online runtime enforces (Section 4.5's
// "pre-compute an efficient thread management plan"). The serializable
// half lives in internal/plan; PerIteration keeps the full trace records
// (timings) for display.
type Plan struct {
	IterationsPerEpoch int
	PerIteration       []plan.IterRecord
	// File is the serializable plan (internal/plan format) the online
	// runtime can interpret directly.
	File *plan.Plan
}

// BuildPlan runs the planner — this simulator, as in the paper — for the
// given number of iterations and returns the per-iteration thread
// decisions and timings.
func BuildPlan(cfg Config, iterations int) (*Plan, error) {
	cfg.CollectTrace = true
	cfg.MaxTraceIters = iterations
	res, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	recs := res.Trace
	if len(recs) > iterations {
		recs = recs[:iterations]
	}
	pf := &plan.Plan{
		Version:            plan.Version,
		Strategy:           cfg.Strategy.Name,
		Dataset:            cfg.Dataset.Name(),
		Model:              cfg.Model.Name,
		Nodes:              cfg.Topology.Nodes,
		GPUsPerNode:        cfg.Topology.GPUsPerNode,
		IterationsPerEpoch: res.IterationsPerEpoch,
		Seed:               cfg.Seed,
	}
	for _, rec := range recs {
		pf.Iterations = append(pf.Iterations, plan.Iteration{
			Epoch:          rec.Epoch,
			Iter:           rec.Iter,
			Threads:        rec.Threads,
			PredictedBatch: rec.BatchTime,
		})
	}
	if err := pf.Validate(); err != nil {
		return nil, fmt.Errorf("pipeline: planner produced invalid plan: %w", err)
	}
	return &Plan{IterationsPerEpoch: res.IterationsPerEpoch, PerIteration: recs, File: pf}, nil
}
