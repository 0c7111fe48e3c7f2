package experiments

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/runtime"
)

// TestSimulatorAndRuntimeAgree cross-validates the two executions of the
// same design: the virtual-time simulator and the concurrent online
// runtime run the identical workload (same dataset, schedule, policies)
// and must agree on the structural quantities — total lookups, and a
// hit ratio in the same regime. Timing-dependent quantities (prefetch
// volume, exact hit counts) legitimately differ: the runtime's prefetcher
// races real goroutines.
func TestSimulatorAndRuntimeAgree(t *testing.T) {
	type pair struct{ sim, online float64 }
	results := map[string]pair{}
	for _, strategy := range []string{"pytorch", "nopfs"} {
		cfg, err := NewConfig(Workload{
			Scale: "tiny", Epochs: 3, Strategy: strategy, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := pipeline.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		online, err := runtime.Run(onlineOptions(cfg, 0.001, nil))
		if err != nil {
			t.Fatal(err)
		}
		// Identical access structure: both executions replay the exact
		// same deterministic schedule.
		simLookups := sim.Metrics.CacheHits + sim.Metrics.CacheMisses
		onLookups := online.CacheHits + online.CacheMisses
		if simLookups != onLookups {
			t.Fatalf("%s: lookup counts differ: sim %d vs runtime %d", strategy, simLookups, onLookups)
		}
		if uint64(sim.Metrics.Iterations) != uint64(online.Iterations) {
			t.Fatalf("%s: iteration counts differ: %d vs %d", strategy, sim.Metrics.Iterations, online.Iterations)
		}
		results[strategy] = pair{sim.Metrics.HitRatio(), online.HitRatio()}
		t.Logf("%s: hit ratio sim %.3f vs runtime %.3f", strategy, sim.Metrics.HitRatio(), online.HitRatio())
	}

	// Demand-only loading is timing-independent: the two executions must
	// land in the same regime.
	py := results["pytorch"]
	if diff := py.sim - py.online; diff > 0.20 || diff < -0.20 {
		t.Fatalf("pytorch hit ratios diverged: sim %.3f vs runtime %.3f", py.sim, py.online)
	}
	// Prefetching is timing-dependent (the runtime's prefetcher races a
	// compressed clock), so only the direction is invariant: prefetching
	// must raise the hit ratio in BOTH worlds.
	np := results["nopfs"]
	if np.sim <= py.sim {
		t.Fatalf("sim: NoPFS (%.3f) not above PyTorch (%.3f)", np.sim, py.sim)
	}
	if np.online <= py.online {
		t.Fatalf("runtime: NoPFS (%.3f) not above PyTorch (%.3f)", np.online, py.online)
	}
	// The simulator is not an upper bound on the runtime: its prefetcher
	// spends a thread-seconds budget, the runtime's is bounded only by
	// depth, so the gap has either sign depending on scheduling. It stays
	// a logged number until ROADMAP's differential replay (one decision
	// core, identical hit/miss sequences) replaces this comparison.
	t.Logf("nopfs hit-ratio gap, runtime minus simulator: %+.3f", np.online-np.sim)
}
