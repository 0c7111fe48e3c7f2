package pipeline

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/plan"
)

// testConfig builds a small single-node run: 8 GPUs, cache at 30% of the
// dataset (the paper's ImageNet-1K ratio).
func testConfig(t testing.TB, spec loader.Spec, epochs int) Config {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "test-1k", NumSamples: 6000, MeanSize: 105 << 10, SigmaLog: 0.45,
		MinSize: 4 << 10, MaxSize: 1 << 20, Classes: 10, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := cluster.ThetaGPULike(1, ds.TotalBytes()*30/100)
	model, err := cluster.ModelByName("resnet50")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topology: top,
		Model:    model,
		Dataset:  ds,
		Epochs:   epochs,
		Seed:     7,
		Strategy: spec,
	}
}

func TestRunValidation(t *testing.T) {
	cfg := testConfig(t, loader.PyTorch(8, 24), 1)
	bad := cfg
	bad.Dataset = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil dataset accepted")
	}
	bad = cfg
	bad.Epochs = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero epochs accepted")
	}
	bad = cfg
	bad.Topology.Nodes = 0
	if _, err := Run(bad); err == nil {
		t.Error("invalid topology accepted")
	}
	bad = cfg
	bad.Strategy.Mode = loader.ThreadsStatic
	bad.Strategy.LoadingPerGPU = 0
	if _, err := Run(bad); err == nil {
		t.Error("invalid strategy accepted")
	}
}

func TestRunBasicInvariants(t *testing.T) {
	res, err := Run(testConfig(t, loader.PyTorch(8, 24), 2))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.TotalTime <= 0 {
		t.Fatal("non-positive total time")
	}
	if m.Iterations != 2*res.IterationsPerEpoch {
		t.Fatalf("iterations = %d, want %d", m.Iterations, 2*res.IterationsPerEpoch)
	}
	// Every sample access is either a hit or a miss; misses split into
	// remote hits and PFS fetches.
	accesses := uint64(m.Iterations) * uint64(8*32)
	if m.CacheHits+m.CacheMisses != accesses {
		t.Fatalf("hits %d + misses %d != accesses %d", m.CacheHits, m.CacheMisses, accesses)
	}
	if m.RemoteHits+m.PFSFetches != m.CacheMisses {
		t.Fatalf("remote %d + pfs %d != misses %d", m.RemoteHits, m.PFSFetches, m.CacheMisses)
	}
	// Single node: there are no peers, so every miss goes to the PFS.
	if m.RemoteHits != 0 {
		t.Fatalf("single node recorded %d remote hits", m.RemoteHits)
	}
	u := m.GPUUtilization()
	if u <= 0 || u > 1 {
		t.Fatalf("utilization = %g outside (0,1]", u)
	}
	if m.BatchTimes.N() != m.Iterations {
		t.Fatalf("batch time samples %d != iterations %d", m.BatchTimes.N(), m.Iterations)
	}
	// Wall time can never beat perfect overlap (= sum of mean batch
	// compute), nor the pure compute lower bound.
	lower := m.TrainTimeTotal / float64(8)
	if m.TotalTime < lower*0.99 {
		t.Fatalf("total %g below compute lower bound %g", m.TotalTime, lower)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testConfig(t, loader.Lobster(), 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(t, loader.Lobster(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.TotalTime != b.Metrics.TotalTime {
		t.Fatalf("non-deterministic: %g vs %g", a.Metrics.TotalTime, b.Metrics.TotalTime)
	}
	if a.Metrics.CacheHits != b.Metrics.CacheHits {
		t.Fatalf("non-deterministic hits: %d vs %d", a.Metrics.CacheHits, b.Metrics.CacheHits)
	}
}

func TestTraceCollection(t *testing.T) {
	cfg := testConfig(t, loader.DALI(24), 1)
	cfg.CollectTrace = true
	cfg.MaxTraceIters = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 10 {
		t.Fatalf("trace length %d, want 10 (capped)", len(res.Trace))
	}
	for _, rec := range res.Trace {
		if len(rec.PerGPU) != 8 {
			t.Fatalf("trace row has %d GPUs", len(rec.PerGPU))
		}
		if rec.BatchTime <= 0 {
			t.Fatal("non-positive batch time in trace")
		}
		for _, g := range rec.PerGPU {
			if g.Train <= 0 || g.Load < 0 || g.Preproc < 0 || g.Stall < 0 || g.Idle < 0 {
				t.Fatalf("negative component in %+v", g)
			}
			// Stall + train never exceeds the batch time.
			if g.Stall+g.Train > rec.BatchTime*1.0001 {
				t.Fatalf("stall %g + train %g > batch %g", g.Stall, g.Train, rec.BatchTime)
			}
		}
	}
}

func TestSharedPoolTimes(t *testing.T) {
	out := make([]float64, 3)
	sharedPoolTimes([]float64{1, 1, 1}, out, make([]poolQueue, 3))
	for _, v := range out {
		if math.Abs(v-3) > 1e-9 {
			t.Fatalf("equal works: %v, want all 3", out)
		}
	}
	// One short and one long queue: short finishes at 2*w_short (two
	// active sharers), long finishes when all pool-seconds are served.
	out = out[:2]
	sharedPoolTimes([]float64{1, 4}, out, make([]poolQueue, 2))
	if math.Abs(out[0]-2) > 1e-9 {
		t.Fatalf("short queue finished at %g, want 2", out[0])
	}
	if math.Abs(out[1]-5) > 1e-9 {
		t.Fatalf("long queue finished at %g, want 5 (total pool-seconds)", out[1])
	}
	// Zero work completes immediately.
	sharedPoolTimes([]float64{0, 2}, out, make([]poolQueue, 2))
	if out[0] != 0 || math.Abs(out[1]-2) > 1e-9 {
		t.Fatalf("zero-work case: %v", out)
	}
}

func TestPrefetchingStrategiesFetchAhead(t *testing.T) {
	demand, err := Run(testConfig(t, loader.PyTorch(8, 24), 2))
	if err != nil {
		t.Fatal(err)
	}
	pref, err := Run(testConfig(t, loader.NoPFS(8, 24), 2))
	if err != nil {
		t.Fatal(err)
	}
	if demand.Metrics.PrefetchedBytes != 0 {
		t.Fatal("demand-only strategy prefetched")
	}
	if pref.Metrics.PrefetchedBytes == 0 {
		t.Fatal("NoPFS did not prefetch")
	}
	if pref.Metrics.HitRatio() <= demand.Metrics.HitRatio() {
		t.Fatalf("prefetching did not raise hit ratio: %g vs %g",
			pref.Metrics.HitRatio(), demand.Metrics.HitRatio())
	}
}

func TestTrainJitterMeanOne(t *testing.T) {
	cfg := testConfig(t, loader.PyTorch(8, 24), 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The training-stage noise has mean 1, so total training time stays
	// within a fraction of a percent of iters*gpus*IterTime.
	want := float64(res.Metrics.Iterations) * 8 * cfg.Model.IterTime
	if math.Abs(res.Metrics.TrainTimeTotal-want) > 0.01*want {
		t.Fatalf("train total %g, want %g ± 1%%", res.Metrics.TrainTimeTotal, want)
	}
	if res.Metrics.TrainTimeTotal == want {
		t.Fatal("training stage has no jitter")
	}
}

// TestImbalancedIterationsFollowTheRule: with a full trace, the count the
// run reports for Fig. 8 is the number of records plan.Imbalance flags,
// under every loader.
func TestImbalancedIterationsFollowTheRule(t *testing.T) {
	flaggedAny := false
	for _, spec := range []loader.Spec{loader.PyTorch(8, 24), loader.DALI(24), loader.NoPFS(8, 24), loader.Lobster()} {
		cfg := testConfig(t, spec, 2)
		cfg.CollectTrace = true
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trace) != res.Metrics.Iterations {
			t.Fatalf("%s: %d records for %d iterations", spec.Name, len(res.Trace), res.Metrics.Iterations)
		}
		flagged := 0
		for _, rec := range res.Trace {
			if imbalanced, _ := plan.Imbalance(rec.PerGPU, cfg.Model.IterTime); imbalanced {
				flagged++
			}
		}
		if flagged != res.Metrics.ImbalancedIterations {
			t.Errorf("%s: ImbalancedIterations = %d, the rule flags %d records", spec.Name, res.Metrics.ImbalancedIterations, flagged)
		}
		t.Logf("%s: %d of %d iterations imbalanced", spec.Name, flagged, len(res.Trace))
		flaggedAny = flaggedAny || flagged > 0
	}
	if !flaggedAny {
		t.Error("no loader produced an imbalanced iteration: the comparison is vacuous")
	}
}
