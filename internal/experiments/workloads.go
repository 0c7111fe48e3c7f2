package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/pipeline"
)

// Workload describes one run by name — the front end of the lobster-sim
// command and the examples. NewConfig resolves it.
type Workload struct {
	// Dataset is "imagenet-1k" or "imagenet-22k".
	Dataset string
	// Scale is "tiny", "small", "medium" or "full" (see dataset.Scale).
	Scale string
	// Model is one of the six Section 5.1 networks (e.g. "resnet50").
	Model string
	// Nodes is the node count (8 GPUs each).
	Nodes int
	// Epochs to train.
	Epochs int
	// Strategy is one of loader.Strategies().
	Strategy string
	// Seed for the deterministic schedule (default 42).
	Seed uint64
	// CacheRatio overrides the node cache : dataset size ratio
	// (default: the paper's ratio for the chosen dataset).
	CacheRatio float64
}

// NewConfig resolves a Workload into a runnable simulator config; the
// online runtime (runtime.Options) takes the same fields.
func NewConfig(w Workload) (pipeline.Config, error) {
	if w.Seed == 0 {
		w.Seed = 42
	}
	if w.Nodes == 0 {
		w.Nodes = 1
	}
	if w.Epochs == 0 {
		w.Epochs = 10
	}
	scale, err := dataset.ParseScale(defaulted(w.Scale, "small"))
	if err != nil {
		return pipeline.Config{}, err
	}
	var spec dataset.Spec
	ratio := w.CacheRatio
	switch w.Dataset {
	case "", "imagenet-1k":
		spec = dataset.ImageNet1K(scale, w.Seed)
		if ratio == 0 {
			ratio = CacheRatio1K
		}
	case "imagenet-22k":
		spec = dataset.ImageNet22K(scale, w.Seed)
		if ratio == 0 {
			ratio = CacheRatio22K
		}
	default:
		return pipeline.Config{}, fmt.Errorf("experiments: unknown dataset %q (want imagenet-1k or imagenet-22k)", w.Dataset)
	}
	model, err := cluster.ModelByName(defaulted(w.Model, "resnet50"))
	if err != nil {
		return pipeline.Config{}, err
	}
	// The dataset must cover at least a few iterations per epoch.
	ensureIters(&spec, 8, w.Nodes*8, model.BatchSize)
	ds, err := dataset.Generate(spec)
	if err != nil {
		return pipeline.Config{}, err
	}
	top := topology(w.Nodes, ds, ratio)
	strat, err := loader.StrategyByName(defaulted(w.Strategy, "lobster"), top.GPUsPerNode, top.CPUThreads)
	if err != nil {
		return pipeline.Config{}, err
	}
	return pipeline.Config{
		Topology: top,
		Model:    model,
		Dataset:  ds,
		Epochs:   w.Epochs,
		Seed:     w.Seed,
		Strategy: strat,
	}, nil
}

func defaulted(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// CacheRatio1K is the paper's node cache : dataset ratio for ImageNet-1K
// (40 GB / 135 GB).
const CacheRatio1K = 40.0 / 135.0

// CacheRatio22K is the ratio for ImageNet-22K (40 GB / 1.3 TB); the
// aggregate 8-node cache covers ~24.6% of the dataset.
const CacheRatio22K = 40.0 / 1331.0

// minItersPerEpoch keeps reduced-scale runs meaningful: an experiment
// whose epoch collapses to a couple of iterations has no steady state to
// measure, so dataset sizes are raised to provide at least this many
// iterations per epoch for the experiment's world size.
const minItersPerEpoch = 12

// imagenet1K generates the scaled ImageNet-1K stand-in, sized for at
// least minItersPerEpoch iterations on `world` GPUs.
func imagenet1K(p Params, world int) (*dataset.Dataset, error) {
	spec := dataset.ImageNet1K(p.Scale, p.Seed)
	ensureIters(&spec, minItersPerEpoch, world, resnet50().BatchSize)
	return dataset.Generate(spec)
}

// imagenet22K generates the scaled ImageNet-22K stand-in.
func imagenet22K(p Params, world int) (*dataset.Dataset, error) {
	spec := dataset.ImageNet22K(p.Scale, p.Seed)
	ensureIters(&spec, minItersPerEpoch, world, resnet50().BatchSize)
	return dataset.Generate(spec)
}

// ensureIters raises spec's sample count to at least iters iterations per
// epoch of world GPUs at the given per-GPU batch size.
func ensureIters(spec *dataset.Spec, iters, world, batch int) {
	min := iters * world * batch
	if spec.NumSamples < min {
		spec.NumSamples = min
	}
}

// topology builds a ThetaGPU-like cluster whose per-node cache keeps the
// paper's cache:dataset ratio at any scale.
func topology(nodes int, ds *dataset.Dataset, cacheRatio float64) cluster.Topology {
	cache := int64(float64(ds.TotalBytes()) * cacheRatio)
	if cache < 1 {
		cache = 1
	}
	return cluster.ThetaGPULike(nodes, cache)
}

// strategies returns the paper's four comparison systems for a topology,
// PyTorch first (the speedup baseline of Fig. 7).
func strategies(top cluster.Topology) []loader.Spec {
	var specs []loader.Spec
	for _, name := range loader.ComparedStrategies() {
		spec, err := loader.StrategyByName(name, top.GPUsPerNode, top.CPUThreads)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		specs = append(specs, spec)
	}
	return specs
}

// baseConfig assembles a pipeline config for one run.
func baseConfig(p Params, top cluster.Topology, ds *dataset.Dataset, model cluster.DNNModel, spec loader.Spec) pipeline.Config {
	return pipeline.Config{
		Topology: top,
		Model:    model,
		Dataset:  ds,
		Epochs:   p.epochs(),
		Seed:     p.Seed,
		Strategy: spec,
	}
}

// resnet50 returns the workhorse model used by most experiments.
func resnet50() cluster.DNNModel {
	m, err := cluster.ModelByName("resnet50")
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return m
}
