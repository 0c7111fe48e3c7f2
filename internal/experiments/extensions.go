package experiments

import (
	"fmt"

	"repro/internal/loader"
	"repro/internal/pipeline"
)

// ExtCacheSweep is an extension experiment beyond the paper's figures: how
// each system's end-to-end time and hit ratio respond to the node cache
// size, from 5% to 80% of the dataset. The paper only remarks that "if
// the cache is large, all samples are placed locally without causing I/O";
// this sweep maps the whole curve and shows where Lobster's advantage
// peaks (mid-range caches, where eviction quality matters most) and where
// it vanishes (tiny caches: nothing to manage; huge caches: nothing to
// evict).
func ExtCacheSweep() Experiment {
	return Experiment{
		ID:    "ext-cachesweep",
		Title: "Extension: sensitivity to node cache size, single node, ImageNet-1K",
		Paper: "not in the paper (extension); anchors: Section 5.1's cache remark",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet1K(p, 8)
			if err != nil {
				return nil, err
			}
			rep := &Report{ID: "ext-cachesweep", Title: "Cache-size sensitivity (extension)"}
			fractions := []float64{0.05, 0.15, 0.30, 0.50, 0.80}
			rep.Printf("%8s %14s %14s %12s %12s", "cache%", "pytorch(s)", "lobster(s)", "speedup", "lob hit%")
			var cfgs []pipeline.Config
			for _, frac := range fractions {
				top := topology(1, ds, frac)
				cfgs = append(cfgs,
					baseConfig(p, top, ds, resnet50(), loader.PyTorch(top.GPUsPerNode, top.CPUThreads)),
					baseConfig(p, top, ds, resnet50(), loader.Lobster()))
			}
			results, err := runAll(p, cfgs)
			if err != nil {
				return nil, err
			}
			for fi, frac := range fractions {
				base, lob := results[2*fi], results[2*fi+1]
				sp := base.Metrics.TotalTime / lob.Metrics.TotalTime
				rep.Printf("%8.0f %14.2f %14.2f %12.2f %12.1f", frac*100,
					base.Metrics.TotalTime, lob.Metrics.TotalTime, sp,
					lob.Metrics.HitRatio()*100)
				rep.Set(fmt.Sprintf("speedup_at_%d", int(frac*100)), sp)
				rep.Set(fmt.Sprintf("lobhit_at_%d", int(frac*100)), lob.Metrics.HitRatio())
			}
			return rep, nil
		},
	}
}

// ExtPolicyZoo is an extension experiment: the full eviction-policy zoo
// (including LFU and ARC, classic policies the paper does not evaluate)
// under identical Lobster mechanics — where does the reuse-distance policy
// sit relative to the textbook alternatives and the clairvoyant bound?
func ExtPolicyZoo() Experiment {
	return Experiment{
		ID:    "ext-policyzoo",
		Title: "Extension: eviction-policy zoo under fixed mechanics, single node, ImageNet-1K",
		Paper: "not in the paper (extension); Section 5.5 compares only the four systems",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet1K(p, 8)
			if err != nil {
				return nil, err
			}
			top := topology(1, ds, CacheRatio1K)
			rep := &Report{ID: "ext-policyzoo", Title: "Eviction policy zoo (extension)"}
			rep.Printf("%-12s %10s %12s %10s", "policy", "hit%", "time(s)", "speedup")
			policies := []struct {
				name string
				kind loader.PolicyKind
			}{
				{"fifo", loader.PolicyFIFO},
				{"lru", loader.PolicyLRU},
				{"lfu", loader.PolicyLFU},
				{"arc", loader.PolicyARC},
				{"pagecache", loader.PolicyPageCache},
				{"nopfs", loader.PolicyNoPFS},
				{"lobster", loader.PolicyLobster},
				{"belady", loader.PolicyBelady},
			}
			var cfgs []pipeline.Config
			for _, pk := range policies {
				spec := loader.Lobster()
				spec.Name = "lobster+" + pk.name
				spec.Policy = pk.kind
				cfgs = append(cfgs, baseConfig(p, top, ds, resnet50(), spec))
			}
			results, err := runAll(p, cfgs)
			if err != nil {
				return nil, err
			}
			baseTime := results[0].Metrics.TotalTime
			for pi, pk := range policies {
				res := results[pi]
				rep.Printf("%-12s %10.1f %12.2f %10.2f", pk.name,
					res.Metrics.HitRatio()*100, res.Metrics.TotalTime,
					baseTime/res.Metrics.TotalTime)
				rep.Set("hit_"+pk.name, res.Metrics.HitRatio())
			}
			return rep, nil
		},
	}
}

// ExtTimeToAccuracy is an extension experiment combining Fig. 9 with the
// Fig. 7 speedups: since all loaders follow the identical sample schedule,
// accuracy-per-epoch is loader-independent — so the wall time to reach a
// target accuracy improves by exactly the loader's throughput factor.
// This is the metric a practitioner actually pays for.
func ExtTimeToAccuracy() Experiment {
	return Experiment{
		ID:    "ext-tta",
		Title: "Extension: wall time to target accuracy, ResNet50, single node, ImageNet-1K",
		Paper: "not in the paper (extension); combines Fig. 9's curves with Fig. 7's speedups",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet1K(p, 8)
			if err != nil {
				return nil, err
			}
			top := topology(1, ds, CacheRatio1K)
			model := resnet50()
			rep := &Report{ID: "ext-tta", Title: "Time to target accuracy (extension)"}

			// Target: the accuracy the schedule reaches at 60% of the
			// run (scale-independent anchor).
			probe := pipeline.AccuracyCurve(model, p.epochs(), p.Seed)
			target := probe[len(probe)*6/10-1]
			rep.Printf("target accuracy: %.4f (reached at epoch %d of %d)",
				target, len(probe)*6/10, p.epochs())
			rep.Printf("%-12s %16s %12s", "strategy", "time-to-acc(s)", "vs pytorch")
			specs := strategies(top)
			var cfgs []pipeline.Config
			for _, spec := range specs {
				cfgs = append(cfgs, baseConfig(p, top, ds, model, spec))
			}
			campaigns, err := runAllTrain(p, cfgs)
			if err != nil {
				return nil, err
			}
			var base float64
			for si, spec := range specs {
				tta := campaigns[si].TimeToAccuracy(target)
				if tta < 0 {
					return nil, fmt.Errorf("ext-tta: %s never reached %.4f", spec.Name, target)
				}
				if base == 0 {
					base = tta
				}
				rep.Printf("%-12s %16.2f %12.2f", spec.Name, tta, base/tta)
				rep.Set("tta_"+spec.Name, tta)
				rep.Set("speedup_"+spec.Name, base/tta)
			}
			return rep, nil
		},
	}
}
