package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/pipeline"
)

// runImbalance executes all four loaders and reports the fraction (and
// per-epoch count) of iterations with load imbalance — the Fig. 8(a)/(b)
// measurement.
func runImbalance(rep *Report, p Params, top cluster.Topology, ds *dataset.Dataset) error {
	var cfgs []pipeline.Config
	for _, spec := range strategies(top) {
		cfgs = append(cfgs, baseConfig(p, top, ds, resnet50(), spec))
	}
	results, err := runAll(p, cfgs)
	if err != nil {
		return err
	}
	runs := make([]*pipeline.Metrics, len(results))
	var itersPerEpoch int
	for i, res := range results {
		runs[i] = res.Metrics
		itersPerEpoch = res.IterationsPerEpoch
	}
	rep.Printf("%-12s %10s %14s %16s", "strategy", "imbal%", "imbal/epoch", "reduction(pp)")
	lob := runs[len(runs)-1]
	for _, r := range runs {
		red := (r.ImbalanceFraction() - lob.ImbalanceFraction()) * 100
		rep.Printf("%-12s %10.1f %14.1f %16.1f", r.Strategy,
			r.ImbalanceFraction()*100,
			r.ImbalanceFraction()*float64(itersPerEpoch), red)
		rep.Set(fmt.Sprintf("imbalance_%s", r.Strategy), r.ImbalanceFraction())
	}
	return nil
}

// Fig08aImbalanceSingle reproduces Fig. 8(a): iterations with load
// imbalance, single node, ResNet50, ImageNet-22K. Paper: Lobster reduces
// imbalanced iterations by 31.4/16.4/7.9 pp vs PyTorch/DALI/NoPFS; only
// 17.5% of Lobster's iterations remain imbalanced.
func Fig08aImbalanceSingle() Experiment {
	return Experiment{
		ID:    "fig08a",
		Title: "Load-imbalanced iterations, single node, ImageNet-22K (Fig. 8a)",
		Paper: "reduction 31.4/16.4/7.9 pp vs PyT/DALI/NoPFS; Lobster at 17.5%",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet22K(p, 8)
			if err != nil {
				return nil, err
			}
			top := topology(1, ds, CacheRatio22K)
			rep := &Report{ID: "fig08a", Title: "Imbalanced iterations, single node (Fig. 8a)"}
			if err := runImbalance(rep, p, top, ds); err != nil {
				return nil, err
			}
			return rep, nil
		},
	}
}

// Fig08bImbalanceMulti reproduces Fig. 8(b): the same measurement on eight
// nodes. Paper: reduction 35.2/25.8/9.7 pp; Lobster at 22.8%.
func Fig08bImbalanceMulti() Experiment {
	return Experiment{
		ID:    "fig08b",
		Title: "Load-imbalanced iterations, eight nodes, ImageNet-22K (Fig. 8b)",
		Paper: "reduction 35.2/25.8/9.7 pp vs PyT/DALI/NoPFS; Lobster at 22.8%",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet22K(p, 64)
			if err != nil {
				return nil, err
			}
			top := topology(8, ds, CacheRatio22K)
			rep := &Report{ID: "fig08b", Title: "Imbalanced iterations, eight nodes (Fig. 8b)"}
			if err := runImbalance(rep, p, top, ds); err != nil {
				return nil, err
			}
			return rep, nil
		},
	}
}

// Fig08cBatchTime reproduces Fig. 8(c): the distribution of per-iteration
// (batch) times for ResNet50 on ImageNet-1K, one node. Paper: Lobster has
// both shorter and less variable batch times than the baselines.
func Fig08cBatchTime() Experiment {
	return Experiment{
		ID:    "fig08c",
		Title: "Batch time distribution, single node, ImageNet-1K (Fig. 8c)",
		Paper: "Lobster: shorter batch times with less variance",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet1K(p, 8)
			if err != nil {
				return nil, err
			}
			top := topology(1, ds, CacheRatio1K)
			rep := &Report{ID: "fig08c", Title: "Batch time distribution (Fig. 8c)"}
			rep.Printf("%-12s %9s %9s %9s %9s %9s %8s", "strategy",
				"mean(ms)", "p50(ms)", "p95(ms)", "p99(ms)", "std(ms)", "CV")
			specs := strategies(top)
			var cfgs []pipeline.Config
			for _, spec := range specs {
				cfgs = append(cfgs, baseConfig(p, top, ds, resnet50(), spec))
			}
			results, err := runAll(p, cfgs)
			if err != nil {
				return nil, err
			}
			for si, spec := range specs {
				bt := results[si].Metrics.BatchTimes
				rep.Printf("%-12s %9.1f %9.1f %9.1f %9.1f %9.1f %8.3f", spec.Name,
					bt.Mean()*1000, bt.Median()*1000, bt.Percentile(95)*1000,
					bt.Percentile(99)*1000, bt.StdDev()*1000, bt.CoefVar())
				rep.Set(fmt.Sprintf("mean_%s", spec.Name), bt.Mean())
				rep.Set(fmt.Sprintf("cv_%s", spec.Name), bt.CoefVar())
			}
			return rep, nil
		},
	}
}
