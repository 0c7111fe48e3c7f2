package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// traceCmd renders Fig. 3-style per-iteration pipeline breakdowns:
// stacked load/preprocess/stall/train/idle bars for selected GPUs, plus
// the motivation-section statistics (imbalance frequency, bottleneck
// shifts).
func traceCmd(args []string) error {
	fs := flag.NewFlagSet("lobster-sim trace", flag.ExitOnError)
	var (
		datasetName = fs.String("dataset", "imagenet-1k", "imagenet-1k | imagenet-22k")
		scale       = fs.String("scale", "tiny", "tiny | small | medium | full")
		model       = fs.String("model", "resnet50", "DNN model")
		nodes       = fs.Int("nodes", 8, "number of nodes (8 GPUs each)")
		strategy    = fs.String("strategy", "dali", "loading strategy")
		epochs      = fs.Int("epochs", 3, "epochs to simulate")
		epoch       = fs.Int("epoch", 1, "epoch to display")
		perSection  = fs.Int("per-section", 8, "iterations per begin/middle/end section")
		gpuList     = fs.String("gpus", "0,1,8", "comma-separated global GPU indices to display")
		seed        = fs.Uint64("seed", 42, "schedule seed")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	cfg, err := experiments.NewConfig(experiments.Workload{
		Dataset: *datasetName, Scale: *scale, Model: *model,
		Nodes: *nodes, Epochs: *epochs, Strategy: *strategy, Seed: *seed,
	})
	if err != nil {
		return err
	}
	cfg.CollectTrace = true
	cfg.MaxTraceIters = 1 << 20
	res, err := pipeline.Run(cfg)
	if err != nil {
		return err
	}
	gpus, err := parseGPUs(*gpuList)
	if err != nil {
		return err
	}
	slice := pipeline.SliceTrace(res.Trace, *epoch, *perSection)
	fmt.Print(pipeline.RenderTrace(slice, gpus, 120))

	st := pipeline.AnalyzeTrace(res.Trace, cfg.Model.IterTime)
	fmt.Printf("\niterations: %d\n", st.Iterations)
	fmt.Printf("iterations with load imbalance: %.1f%%\n", st.ImbalancedFrac*100)
	fmt.Printf("(iteration,GPU) pairs where loading > training: %.1f%%\n", st.LoadBottleneckFrac*100)
	fmt.Printf("bottleneck shifts: %d\n", st.BottleneckShifts)
	fmt.Printf("mean GPU idle fraction: %.1f%%\n", st.MeanIdleFrac*100)
	return nil
}

func parseGPUs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad gpu list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
