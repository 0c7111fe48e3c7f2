package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/loader"
	"repro/internal/pipeline"
)

// Fig09Accuracy reproduces Figure 9: ResNet50 training-accuracy curves on
// ImageNet-1K with PyTorch DataLoader and with Lobster, eight nodes.
// Paper: the two curves coincide per epoch ("Lobster does not change the
// randomness of data accessing"), converging to 76.0% around epoch 40,
// while Lobster reaches any accuracy earlier in wall time.
func Fig09Accuracy() Experiment {
	return Experiment{
		ID:    "fig09",
		Title: "Training accuracy curves, ResNet50, ImageNet-1K, 8x8 GPUs (Fig. 9)",
		Paper: "identical per-epoch curves; ~76.0% around epoch 40; Lobster faster in wall time",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet1K(p, 64)
			if err != nil {
				return nil, err
			}
			top := topology(8, ds, CacheRatio1K/8)
			rep := &Report{ID: "fig09", Title: "Accuracy curves (Fig. 9)"}

			campaigns, err := runAllTrain(p, []pipeline.Config{
				baseConfig(p, top, ds, resnet50(), loader.PyTorch(top.GPUsPerNode, top.CPUThreads)),
				baseConfig(p, top, ds, resnet50(), loader.Lobster()),
			})
			if err != nil {
				return nil, err
			}
			base, lob := campaigns[0], campaigns[1]
			rep.Printf("%6s %12s %12s %14s %14s", "epoch", "acc(pyt)", "acc(lob)", "t(pyt,s)", "t(lob,s)")
			step := len(base.Curve)/10 + 1
			for e := 0; e < len(base.Curve); e += step {
				rep.Printf("%6d %12.4f %12.4f %14.2f %14.2f", e+1,
					base.Curve[e].Accuracy, lob.Curve[e].Accuracy,
					base.Curve[e].Time, lob.Curve[e].Time)
			}
			last := len(base.Curve) - 1
			rep.Printf("final accuracy: pytorch %.4f, lobster %.4f (identical by construction)",
				base.FinalAccuracy(), lob.FinalAccuracy())
			rep.Printf("wall time to final epoch: pytorch %.2fs, lobster %.2fs (%.2fx faster)",
				base.Curve[last].Time, lob.Curve[last].Time,
				base.Curve[last].Time/lob.Curve[last].Time)
			rep.Set("final_acc", lob.FinalAccuracy())
			rep.Set("walltime_speedup", base.Curve[last].Time/lob.Curve[last].Time)
			rep.Set("curves_identical", boolTo01(curvesEqual(base, lob)))
			return rep, nil
		},
	}
}

func curvesEqual(a, b *pipeline.Campaign) bool {
	if len(a.Curve) != len(b.Curve) {
		return false
	}
	for i := range a.Curve {
		if a.Curve[i].Accuracy != b.Curve[i].Accuracy {
			return false
		}
	}
	return true
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TabHitRatio reproduces the Section 5.5 in-text comparison: memory-cache
// hit ratios over the whole training, single node, ResNet50, ImageNet-1K.
// Paper: Lobster 63.2% vs PyTorch 24.5%, DALI 32.6%, NoPFS 48.9%
// (improvements of 14.3-38.7 pp).
func TabHitRatio() Experiment {
	return Experiment{
		ID:    "tab-hitratio",
		Title: "Memory cache hit ratio, single node, ImageNet-1K (Section 5.5)",
		Paper: "Lobster 63.2%; PyTorch 24.5%; DALI 32.6%; NoPFS 48.9%",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet1K(p, 8)
			if err != nil {
				return nil, err
			}
			top := topology(1, ds, CacheRatio1K)
			rep := &Report{ID: "tab-hitratio", Title: "Cache hit ratios (Section 5.5)"}
			paper := map[string]float64{"pytorch": 24.5, "dali": 32.6, "nopfs": 48.9, "lobster": 63.2}
			rep.Printf("%-12s %12s %12s", "strategy", "hit%(ours)", "hit%(paper)")
			var lobster, nopfs float64
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
				hr := results[si].Metrics.HitRatio() * 100
				rep.Printf("%-12s %12.1f %12.1f", spec.Name, hr, paper[spec.Name])
				rep.Set("hit_"+spec.Name, hr/100)
				switch spec.Name {
				case "lobster":
					lobster = hr
				case "nopfs":
					nopfs = hr
				}
			}
			rep.Printf("Lobster improvement over NoPFS: %.1f pp (paper: 14.3 pp)", lobster-nopfs)
			rep.Set("improvement_vs_nopfs_pp", lobster-nopfs)
			return rep, nil
		},
	}
}

// Fig10GPUUtil reproduces Figure 10: average GPU utilization across the
// six benchmark DNNs, single node, ImageNet-1K. Paper averages:
// Lobster 76.1% vs PyTorch 52.3%, DALI 57.5%, NoPFS 72.4%.
func Fig10GPUUtil() Experiment {
	return Experiment{
		ID:    "fig10",
		Title: "GPU utilization across six DNNs, single node, ImageNet-1K (Fig. 10)",
		Paper: "Lobster 76.1% vs PyTorch 52.3%, DALI 57.5%, NoPFS 72.4%",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet1K(p, 8)
			if err != nil {
				return nil, err
			}
			top := topology(1, ds, CacheRatio1K)
			rep := &Report{ID: "fig10", Title: "GPU utilization (Fig. 10)"}
			specs := strategies(top)
			rep.Printf("%-12s %10s %10s %10s %10s", "model",
				specs[0].Name, specs[1].Name, specs[2].Name, specs[3].Name)
			sums := make([]float64, len(specs))
			models := benchModels()
			var cfgs []pipeline.Config
			for _, m := range models {
				for _, spec := range specs {
					cfgs = append(cfgs, baseConfig(p, top, ds, m, spec))
				}
			}
			results, err := runAll(p, cfgs)
			if err != nil {
				return nil, err
			}
			for mi, m := range models {
				row := fmt.Sprintf("%-12s", m.Name)
				for i, spec := range specs {
					u := results[mi*len(specs)+i].Metrics.GPUUtilization()
					sums[i] += u
					row += fmt.Sprintf(" %9.1f%%", u*100)
					rep.Set(fmt.Sprintf("util_%s_%s", m.Name, spec.Name), u)
				}
				rep.Lines = append(rep.Lines, row)
			}
			row := fmt.Sprintf("%-12s", "average")
			for i, spec := range specs {
				avg := sums[i] / float64(len(models))
				row += fmt.Sprintf(" %9.1f%%", avg*100)
				rep.Set("avg_util_"+spec.Name, avg)
			}
			rep.Lines = append(rep.Lines, row)
			return rep, nil
		},
	}
}

// Fig11Ablation reproduces Figure 11: per-model training-time speedup over
// DALI for Lobster_th (thread management only), Lobster_evict (reuse-based
// eviction only) and full Lobster, single node, ImageNet-1K. Paper: thread
// management contributes more (up to 1.4x, avg 1.3x) than eviction
// (~1.15x avg), and eviction helps the small models most.
func Fig11Ablation() Experiment {
	return Experiment{
		ID:    "fig11",
		Title: "Ablation: speedup over DALI per component (Fig. 11)",
		Paper: "Lobster_th avg 1.3x (up to 1.4x); Lobster_evict ~1.15x; eviction helps small models more",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			ds, err := imagenet1K(p, 8)
			if err != nil {
				return nil, err
			}
			top := topology(1, ds, CacheRatio1K)
			rep := &Report{ID: "fig11", Title: "Ablation vs DALI (Fig. 11)"}
			variants := []loader.Spec{
				loader.LobsterTh(),
				loader.LobsterEvict(top.GPUsPerNode, top.CPUThreads),
				loader.Lobster(),
			}
			rep.Printf("%-12s %12s %14s %10s", "model", "lobster_th", "lobster_evict", "lobster")
			sums := make([]float64, len(variants))
			models := benchModels()
			// Per model: the DALI baseline plus each variant (stride 1+len(variants)).
			var cfgs []pipeline.Config
			for _, m := range models {
				cfgs = append(cfgs, baseConfig(p, top, ds, m, loader.DALI(top.CPUThreads)))
				for _, v := range variants {
					cfgs = append(cfgs, baseConfig(p, top, ds, m, v))
				}
			}
			results, err := runAll(p, cfgs)
			if err != nil {
				return nil, err
			}
			stride := 1 + len(variants)
			for mi, m := range models {
				base := results[mi*stride]
				row := fmt.Sprintf("%-12s", m.Name)
				for i, v := range variants {
					res := results[mi*stride+1+i]
					sp := base.Metrics.TotalTime / res.Metrics.TotalTime
					sums[i] += sp
					row += fmt.Sprintf(" %12.2fx", sp)
					rep.Set(fmt.Sprintf("speedup_%s_%s", m.Name, v.Name), sp)
				}
				rep.Lines = append(rep.Lines, row)
			}
			row := fmt.Sprintf("%-12s", "average")
			for i, v := range variants {
				avg := sums[i] / float64(len(models))
				row += fmt.Sprintf(" %12.2fx", avg)
				rep.Set("avg_speedup_"+v.Name, avg)
			}
			rep.Lines = append(rep.Lines, row)
			return rep, nil
		},
	}
}

// benchModels returns the six Section 5.1 models.
func benchModels() []cluster.DNNModel {
	return cluster.Models()
}
