package runtime

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/plan"
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

// TestRunRecordsIterations: a recorded run returns one plan.IterRecord
// per completed iteration, also when cancelled; each rank's Stall adds
// up to its stall histogram, its allreduce time is in Idle rather than
// Train, and the imbalanced-iterations counter is
// plan.Imbalance applied to the records. A run that records nothing
// returns no trace.
func TestRunRecordsIterations(t *testing.T) {
	for _, cancelAfter := range []int{0, 5} {
		opts := testOptions(t, loader.Lobster(), 2, 2)
		reg := obs.NewRegistry()
		opts.Obs, opts.Trace = reg, obs.NewTraceRing(1024)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelAfter > 0 {
			// Cancelled inside barrier cancelAfter-1: the run stops at
			// the next boundary, after iteration cancelAfter.
			opts.OnProgress = func(p Progress) {
				if p.Iteration == cancelAfter {
					cancel()
				}
			}
		}
		stats, err := RunContext(ctx, opts)
		if cancelAfter > 0 && (err != context.Canceled || stats.Iterations != cancelAfter+1) {
			t.Fatalf("cancelled run: err %v, %d iterations, want %d", err, stats.Iterations, cancelAfter+1)
		} else if cancelAfter == 0 && err != nil {
			t.Fatal(err)
		}
		world, gpus := opts.Topology.WorldSize(), opts.Topology.GPUsPerNode
		ipe := opts.Dataset.Len() / (world * opts.Model.BatchSize)
		if len(stats.Trace) != stats.Iterations {
			t.Fatalf("%d records for %d completed iterations", len(stats.Trace), stats.Iterations)
		}
		stall, train, idle := make([]float64, world), make([]float64, world), make([]float64, world)
		flagged := make([]uint64, world)
		for h, rec := range stats.Trace {
			if rec.Epoch*ipe+rec.Iter != h || len(rec.PerGPU) != world || len(rec.Threads) != opts.Topology.Nodes {
				t.Fatalf("record %d: epoch %d iter %d, %d GPUs, %d nodes", h, rec.Epoch, rec.Iter, len(rec.PerGPU), len(rec.Threads))
			}
			if rec.BatchTime <= 0 || len(rec.Threads[0].Loading) != gpus || rec.Threads[0].Preproc < 1 {
				t.Fatalf("record %d: batch %v, threads %+v", h, rec.BatchTime, rec.Threads)
			}
			for r, g := range rec.PerGPU {
				stall[r] += g.Stall
				train[r] += g.Train
				idle[r] += g.Idle
				if g.Train <= 0 || g.Idle < 0 || g.Load < 0 {
					t.Fatalf("record %d rank %d: %+v", h, r, g)
				}
			}
			if imbalanced, critical := plan.Imbalance(rec.PerGPU, opts.Model.IterTime*opts.TimeScale); imbalanced {
				flagged[critical]++
			}
		}
		t.Logf("%d iterations; imbalanced ones by critical rank %v", stats.Iterations, flagged)
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		scraped := func(name string, r int) float64 {
			series := fmt.Sprintf("%s{rank=\"%d\"} ", name, r)
			i := strings.Index(sb.String(), series)
			if i < 0 {
				t.Fatalf("scrape has no %s", series)
			}
			line := sb.String()[i+len(series):]
			v, err := strconv.ParseFloat(line[:strings.IndexByte(line, '\n')], 64)
			if err != nil {
				t.Fatal(err)
			}
			return v
		}
		for r := 0; r < world; r++ {
			if got := scraped("lobster_runtime_stall_seconds_sum", r); math.Abs(got-stall[r]) > 1e-9 {
				t.Errorf("rank %d: records stall %.9fs, histogram %v", r, stall[r], got)
			}
			// The histogram's train span runs through the allreduce; the
			// record's Train stops at the end of the compute, so the
			// allreduce (and any wait there for a straggler) is in Idle.
			allreduce := scraped("lobster_runtime_train_seconds_sum", r) - train[r]
			if allreduce <= 1e-9 || idle[r] < allreduce-1e-9 {
				t.Errorf("rank %d: allreduce %.9fs beyond the records' train, records idle %.9fs", r, allreduce, idle[r])
			}
			counter := reg.Counter("lobster_runtime_imbalanced_iterations_total", "", "rank", strconv.Itoa(r))
			if counter.Value() != flagged[r] {
				t.Errorf("rank %d critical in %d flagged iterations, counter says %d", r, flagged[r], counter.Value())
			}
		}
	}

	opts := testOptions(t, loader.Lobster(), 1, 1)
	if stats, err := Run(opts); err != nil || stats.Trace != nil {
		t.Fatalf("un-instrumented run: err %v, %d records", err, len(stats.Trace))
	}
	opts.Obs = obs.NewRegistry()
	opts.Obs.SetEnabled(false)
	if stats, err := Run(opts); err != nil || stats.Trace != nil {
		t.Fatalf("disabled-registry run: err %v, %d records", err, len(stats.Trace))
	}
}
