// Command lobster-sim drives the virtual-time simulator. With no
// subcommand it runs one simulated training and prints its metrics, or —
// with -compare — runs the paper's four loading strategies on the same
// workload and prints the Fig. 7-style comparison table. Subcommands:
//
//	plan     print the offline thread-management plan (Section 4.5)
//	trace    render Fig. 3-style per-iteration pipeline breakdowns
//	figures  regenerate the paper's tables and figures
//
// Examples:
//
//	lobster-sim -strategy lobster -dataset imagenet-1k -scale small -epochs 10
//	lobster-sim -compare -dataset imagenet-22k -nodes 8 -scale small
//	lobster-sim plan -dataset imagenet-1k -scale tiny -iterations 12
//	lobster-sim trace -strategy dali -epoch 1 -gpus 0,1,8 -nodes 8
//	lobster-sim figures -experiment fig07a -scale medium
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/loader"
	"repro/internal/pipeline"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) == 0 || strings.HasPrefix(args[0], "-"):
		err = simulate()
	case args[0] == "plan":
		err = planCmd(args[1:])
	case args[0] == "trace":
		err = traceCmd(args[1:])
	case args[0] == "figures":
		err = figuresCmd(args[1:])
	default:
		err = fmt.Errorf("unknown subcommand %q (want plan, trace or figures)", args[0])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lobster-sim:", err)
		os.Exit(1)
	}
}

// simulate is the default command: one run, or -compare's four.
func simulate() error {
	var (
		datasetName = flag.String("dataset", "imagenet-1k", "imagenet-1k | imagenet-22k")
		scale       = flag.String("scale", "small", "tiny | small | medium | full")
		model       = flag.String("model", "resnet50", "DNN model (resnet50, resnet32, shufflenet, alexnet, squeezenet, vgg11)")
		nodes       = flag.Int("nodes", 1, "number of nodes (8 GPUs each)")
		epochs      = flag.Int("epochs", 10, "training epochs")
		strategy    = flag.String("strategy", "lobster", "loading strategy")
		seed        = flag.Uint64("seed", 42, "schedule seed")
		compare     = flag.Bool("compare", false, "run all strategies and print the comparison table")
		jsonOut     = flag.Bool("json", false, "emit machine-readable JSON instead of text")
	)
	flag.Usage = func() {
		_, _ = fmt.Fprint(flag.CommandLine.Output(), // best-effort usage text; stderr has no recovery
			"usage: lobster-sim [flags]\n       lobster-sim plan|trace|figures [flags]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	names := []string{*strategy}
	if *compare {
		names = loader.ComparedStrategies()
	}
	var runs []*pipeline.Metrics
	var rows []jsonRow
	for _, name := range names {
		cfg, err := experiments.NewConfig(experiments.Workload{
			Dataset: *datasetName, Scale: *scale, Model: *model,
			Nodes: *nodes, Epochs: *epochs, Strategy: name, Seed: *seed,
		})
		if err != nil {
			return err
		}
		res, err := pipeline.Run(cfg)
		if err != nil {
			return err
		}
		runs = append(runs, res.Metrics)
		rows = append(rows, rowOf(res.Metrics))
		if *jsonOut {
			continue
		}
		if !*compare {
			fmt.Println(res.Metrics)
			fmt.Printf("  batch times: %s\n", res.Metrics.BatchTimes)
			fmt.Printf("  remote hits: %d  PFS fetches: %d  prefetched: %.1f MB\n",
				res.Metrics.RemoteHits, res.Metrics.PFSFetches,
				float64(res.Metrics.PrefetchedBytes)/1e6)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	if *compare {
		fmt.Print(pipeline.Table(runs))
	}
	return nil
}

// jsonRow is the machine-readable summary of one run.
type jsonRow struct {
	Strategy       string  `json:"strategy"`
	Model          string  `json:"model"`
	Dataset        string  `json:"dataset"`
	Nodes          int     `json:"nodes"`
	GPUsPerNode    int     `json:"gpus_per_node"`
	Epochs         int     `json:"epochs"`
	Iterations     int     `json:"iterations"`
	TotalTimeS     float64 `json:"total_time_s"`
	HitRatio       float64 `json:"hit_ratio"`
	GPUUtilization float64 `json:"gpu_utilization"`
	ImbalanceFrac  float64 `json:"imbalance_fraction"`
	RemoteHits     uint64  `json:"remote_hits"`
	PFSFetches     uint64  `json:"pfs_fetches"`
	PrefetchedMB   float64 `json:"prefetched_mb"`
	BatchMeanS     float64 `json:"batch_mean_s"`
	BatchP95S      float64 `json:"batch_p95_s"`
	BatchCoefVar   float64 `json:"batch_coef_var"`
}

func rowOf(m *pipeline.Metrics) jsonRow {
	return jsonRow{
		Strategy:       m.Strategy,
		Model:          m.Model,
		Dataset:        m.Dataset,
		Nodes:          m.Nodes,
		GPUsPerNode:    m.GPUs,
		Epochs:         m.Epochs,
		Iterations:     m.Iterations,
		TotalTimeS:     m.TotalTime,
		HitRatio:       m.HitRatio(),
		GPUUtilization: m.GPUUtilization(),
		ImbalanceFrac:  m.ImbalanceFraction(),
		RemoteHits:     m.RemoteHits,
		PFSFetches:     m.PFSFetches,
		PrefetchedMB:   float64(m.PrefetchedBytes) / 1e6,
		BatchMeanS:     m.BatchTimes.Mean(),
		BatchP95S:      m.BatchTimes.Percentile(95),
		BatchCoefVar:   m.BatchTimes.CoefVar(),
	}
}
