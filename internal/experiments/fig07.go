package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/pipeline"
)

// runComparison executes all four loaders on one workload and renders the
// Fig. 7-style speedup table (PyTorch = 1.0). The four campaigns are
// independent and fan out over p.Pool; the table is rendered afterwards
// from the index-ordered results.
func runComparison(rep *Report, p Params, top cluster.Topology, ds *dataset.Dataset, prefix string) error {
	var cfgs []pipeline.Config
	for _, spec := range strategies(top) {
		cfgs = append(cfgs, baseConfig(p, top, ds, resnet50(), spec))
	}
	results, err := runAll(p, cfgs)
	if err != nil {
		return err
	}
	runs := make([]*pipeline.Metrics, len(results))
	for i, res := range results {
		runs[i] = res.Metrics
	}
	rep.Lines = append(rep.Lines, splitLines(pipeline.Table(runs))...)
	base := runs[0]
	lob := runs[len(runs)-1]
	for _, r := range runs {
		rep.Set(fmt.Sprintf("%stime_%s", prefix, r.Strategy), r.TotalTime)
		rep.Set(fmt.Sprintf("%sspeedup_%s", prefix, r.Strategy), r.Speedup(base))
		rep.Set(fmt.Sprintf("%shit_%s", prefix, r.Strategy), r.HitRatio())
	}
	rep.Printf("Lobster speedups: %.2fx vs pytorch, %.2fx vs dali, %.2fx vs nopfs",
		lob.Speedup(runs[0]), lob.Speedup(runs[1]), lob.Speedup(runs[2]))
	return nil
}

// Fig07aSingleNode1K reproduces Fig. 7(a): single node, eight GPUs,
// ImageNet-1K. Paper: Lobster 1.6x vs PyTorch DataLoader, 1.7x vs DALI,
// 1.2x vs NoPFS.
func Fig07aSingleNode1K() Experiment {
	return Experiment{
		ID:    "fig07a",
		Title: "Single-node multi-GPU training, ImageNet-1K (Fig. 7a)",
		Paper: "Lobster 1.6x vs PyTorch, 1.7x vs DALI, 1.2x vs NoPFS",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet1K(p, 8)
			if err != nil {
				return nil, err
			}
			top := topology(1, ds, CacheRatio1K)
			rep := &Report{ID: "fig07a", Title: "Single node, ImageNet-1K (Fig. 7a)"}
			if err := runComparison(rep, p, top, ds, ""); err != nil {
				return nil, err
			}
			return rep, nil
		},
	}
}

// Fig07bSingleNode22K reproduces Fig. 7(b): single node, ImageNet-22K.
// Paper: Lobster 1.8x vs PyTorch (larger than the 1K case because the
// dataset dwarfs the cache).
func Fig07bSingleNode22K() Experiment {
	return Experiment{
		ID:    "fig07b",
		Title: "Single-node multi-GPU training, ImageNet-22K (Fig. 7b)",
		Paper: "Lobster 1.8x vs PyTorch",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet22K(p, 8)
			if err != nil {
				return nil, err
			}
			top := topology(1, ds, CacheRatio22K)
			rep := &Report{ID: "fig07b", Title: "Single node, ImageNet-22K (Fig. 7b)"}
			if err := runComparison(rep, p, top, ds, ""); err != nil {
				return nil, err
			}
			return rep, nil
		},
	}
}

// Fig07cMultiNode22K reproduces Fig. 7(c): eight nodes, 64 GPUs,
// ImageNet-22K. Paper: Lobster 2.0x / 1.4x / 1.2x vs PyTorch / DALI /
// NoPFS — the distributed cache amplifies the gain.
func Fig07cMultiNode22K() Experiment {
	return Experiment{
		ID:    "fig07c",
		Title: "Multi-node distributed training, ImageNet-22K, 8x8 GPUs (Fig. 7c)",
		Paper: "Lobster 2.0x vs PyTorch, 1.4x vs DALI, 1.2x vs NoPFS",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet22K(p, 64)
			if err != nil {
				return nil, err
			}
			top := topology(8, ds, CacheRatio22K)
			rep := &Report{ID: "fig07c", Title: "Eight nodes, ImageNet-22K (Fig. 7c)"}
			if err := runComparison(rep, p, top, ds, ""); err != nil {
				return nil, err
			}
			return rep, nil
		},
	}
}

// Fig07dScalability reproduces Fig. 7(d): Lobster vs PyTorch across node
// counts on ImageNet-22K. Paper: average speedup 1.53x, up to 1.9x;
// consistent 1.2x-2.0x across scales.
func Fig07dScalability() Experiment {
	return Experiment{
		ID:    "fig07d",
		Title: "Scalability across node counts, ImageNet-22K (Fig. 7d)",
		Paper: "average 1.53x speedup over PyTorch (up to 1.9x)",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet22K(p, 64)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "fig07d", Title: "Scalability (Fig. 7d)"}
			rep.Printf("%6s %12s %12s %9s", "nodes", "pytorch(s)", "lobster(s)", "speedup")
			nodeCounts := []int{1, 2, 4, 8}
			var cfgs []pipeline.Config
			for _, nodes := range nodeCounts {
				top := topology(nodes, ds, CacheRatio22K)
				cfgs = append(cfgs,
					baseConfig(p, top, ds, resnet50(), loader.PyTorch(top.GPUsPerNode, top.CPUThreads)),
					baseConfig(p, top, ds, resnet50(), loader.Lobster()))
			}
			results, err := runAll(p, cfgs)
			if err != nil {
				return nil, err
			}
			sum, count := 0.0, 0
			maxSp := 0.0
			for i, nodes := range nodeCounts {
				base, lob := results[2*i], results[2*i+1]
				sp := base.Metrics.TotalTime / lob.Metrics.TotalTime
				rep.Printf("%6d %12.2f %12.2f %9.2f", nodes,
					base.Metrics.TotalTime, lob.Metrics.TotalTime, sp)
				rep.Set(fmt.Sprintf("speedup_%dnodes", nodes), sp)
				sum += sp
				count++
				if sp > maxSp {
					maxSp = sp
				}
			}
			rep.Printf("average speedup %.2fx (paper: 1.53x), max %.2fx (paper: up to 1.9x)",
				sum/float64(count), maxSp)
			rep.Set("avg_speedup", sum/float64(count))
			rep.Set("max_speedup", maxSp)
			return rep, nil
		},
	}
}
