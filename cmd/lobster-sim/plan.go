package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// planCmd runs the offline planner (the simulator, as in the paper's
// Section 4.5) and prints the per-iteration thread-management plan it
// pre-computes: preprocessing pool size and per-GPU loading threads.
func planCmd(args []string) error {
	fs := flag.NewFlagSet("lobster-sim plan", flag.ExitOnError)
	var (
		datasetName = fs.String("dataset", "imagenet-1k", "imagenet-1k | imagenet-22k")
		scale       = fs.String("scale", "tiny", "tiny | small | medium | full")
		model       = fs.String("model", "resnet50", "DNN model")
		nodes       = fs.Int("nodes", 1, "number of nodes (8 GPUs each)")
		strategy    = fs.String("strategy", "lobster", "loading strategy to plan for")
		iterations  = fs.Int("iterations", 16, "iterations to plan")
		seed        = fs.Uint64("seed", 42, "schedule seed")
		output      = fs.String("o", "", "write the plan as JSON to this file (interpretable by the online runtime)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	cfg, err := experiments.NewConfig(experiments.Workload{
		Dataset: *datasetName, Scale: *scale, Model: *model,
		Nodes: *nodes, Epochs: 2, Strategy: *strategy, Seed: *seed,
	})
	if err != nil {
		return err
	}
	plan, err := pipeline.BuildPlan(cfg, *iterations)
	if err != nil {
		return err
	}
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		if err := plan.File.Encode(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("plan written to %s (%d iterations)\n\n", *output, len(plan.File.Iterations))
	}
	fmt.Printf("plan for %s on %s (%d nodes, I=%d iterations/epoch)\n\n",
		*strategy, *datasetName, *nodes, plan.IterationsPerEpoch)
	fmt.Printf("%-9s %10s   %s\n", "iter", "batch(s)", "per-node threads: preproc | loading per GPU")
	for _, rec := range plan.PerIteration {
		fmt.Printf("e%02d/i%03d  %10.4f", rec.Epoch, rec.Iter, rec.BatchTime)
		for n, th := range rec.Threads {
			fmt.Printf("   node%d: %d |", n, th.Preproc)
			for _, l := range th.Loading {
				fmt.Printf(" %d", l)
			}
		}
		fmt.Println()
	}
	return nil
}
