package runtime

import (
	"strings"
	"testing"

	"repro/internal/loader"
	"repro/internal/obs"
)

// TestRunInstrumented runs the real runtime with a registry and trace
// ring attached and checks every advertised instrument family recorded,
// and that the trace carries the per-stage spans (stall/train per GPU,
// load, preproc) Perfetto renders.
func TestRunInstrumented(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 2, 1)
	reg := obs.NewRegistry()
	trace := obs.NewTraceRing(4096)
	opts.Obs = reg
	opts.Trace = trace
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	scrape := sb.String()
	for _, family := range []string{
		"lobster_runtime_stall_seconds_count{rank=\"0\"}",
		"lobster_runtime_train_seconds_count{rank=\"3\"}",
		"lobster_runtime_load_seconds_count{node=\"1\"}",
		"lobster_preproc_job_seconds_count{node=\"0\"}",
		"lobster_preproc_threads{node=\"0\"}",
		"lobster_runtime_queue_depth{node=\"0\",gpu=\"1\"}",
		"lobster_runtime_load_threads{node=\"1\",gpu=\"0\"}",
		"lobster_runtime_cache_hits_total{node=\"0\"}",
		"lobster_runtime_pfs_reads_total{node=\"1\"}",
		"lobster_runtime_prefetched_total{node=\"0\"}",
		"lobster_runtime_workahead_total{node=\"1\"}",
		"lobster_runtime_prefetch_late_total{node=\"1\"}",
		"lobster_runtime_prefetch_pauses_total{node=\"0\"}",
		"lobster_runtime_prefetch_pfs_seconds_count{node=\"1\"}",
		"lobster_runtime_prefetch_peer_fetch_seconds_count{node=\"0\"}",
		"lobster_runtime_prefetch_recovery_seconds_count{node=\"0\"}",
		"lobster_preproc_jobs_total{node=\"1\"}",
		"lobster_runtime_clock_overshoot_seconds_count",
	} {
		if !strings.Contains(scrape, family) {
			t.Errorf("scrape missing %s", family)
		}
	}
	// The hot-path histograms must actually have recorded.
	stall := reg.Histogram("lobster_runtime_stall_seconds", "", obs.LatencyBuckets(), "rank", "0")
	if stall.Count() == 0 {
		t.Error("stall histogram recorded nothing")
	}
	load := reg.Histogram("lobster_runtime_load_seconds", "", obs.LatencyBuckets(), "node", "0")
	if load.Count() == 0 {
		t.Error("load histogram recorded nothing")
	}

	// Every train step alone is one modeled delay on the run's clock.
	overshoot := reg.Histogram("lobster_runtime_clock_overshoot_seconds", "", obs.LatencyBuckets())
	if got, min := overshoot.Count(), uint64(stats.Iterations*opts.Topology.WorldSize()); got < min {
		t.Errorf("clock overshoot histogram recorded %d waits, want at least the %d train steps", got, min)
	}

	// Trace spans: stall+train on every rank track, load on loader
	// tracks, preproc on pool-worker tracks.
	byName := map[string]int{}
	rankSpans := map[int64]bool{}
	for _, e := range trace.Events() {
		byName[e.Name]++
		if e.Name == "stall" {
			rankSpans[e.TID] = true
		}
	}
	for _, name := range []string{"stall", "train", "load", "preproc"} {
		if byName[name] == 0 {
			t.Errorf("trace has no %q spans (got %v)", name, byName)
		}
	}
	if byName["prefetch_window"] != 0 {
		t.Errorf("trace still has %d per-window prefetch spans", byName["prefetch_window"])
	}
	world := opts.Topology.Nodes * opts.Topology.GPUsPerNode
	if len(rankSpans) != world {
		t.Errorf("stall spans on %d rank tracks, want %d", len(rankSpans), world)
	}
	if trace.ThreadName(1) == "" {
		t.Error("trace track 1 has no name")
	}
}

// TestRunUninstrumented guards the default path: no registry, no trace,
// no recording side effects.
func TestRunUninstrumented(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 1, 1)
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
}

// TestRunTraceOnly attaches only a span ring (no registry) — the
// cheap-tracing configuration — and checks spans still record.
func TestRunTraceOnly(t *testing.T) {
	opts := testOptions(t, loader.PyTorch(2, 8), 1, 1)
	trace := obs.NewTraceRing(1024)
	opts.Trace = trace
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	if trace.Len() == 0 {
		t.Fatal("trace-only run recorded no spans")
	}
}
