package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricSpec declares one metric of BENCHMARK.json. The tables below are
// the source the JSON file is checked against (TestBenchmarkJSONMatches).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the bounded metrics. The driver wants every workload to
// report every one of them, never as zero, so each is a slot that all
// three kinds of workload fill with their own user-visible number; the
// rows a workload prints carry the native name (samples_per_s,
// kv_get_p50_us, sim_wall_s, ...) and say which slot they feed.
//
//	slot              rt-*                 kv-mixed             sim-figs
//	throughput_per_s  samples_per_s        kv_ops_per_s         figures per second
//	op_p50_ms         step_p50_ms          kv_get_p50_us        median figure
//	op_p99_ms         step_p99_ms          kv_get_p99_us        slowest figure
//	cpu_ms_per_kop    cpu_ms_per_ksample   CPU per 1000 ops     CPU per 1000 figures
//
// Every bound is 0.25, the most BENCHMARK.json allows: ten runs of one
// binary on the CI sandbox spread by up to 19% (interquartile over
// median) when a noisy spell of the box outlasts whole runs, and a bound
// has to clear that (README.md, "Noise").
var endToEnd = []metricSpec{
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_kop", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the unbounded single-layer metrics of the traced pass,
// <module>.<name>. A workload reports 0 for a layer it does not cross.
var perLayer = []metricSpec{
	// Stall ledger and stage histograms of the instrumented runtime
	// (fixed work: the traced pass runs a fixed number of epochs).
	{Name: "runtime.stall_local_hit_s", Unit: "s", Better: "lower"},
	{Name: "runtime.stall_peer_fetch_s", Unit: "s", Better: "lower"},
	{Name: "runtime.stall_pfs_s", Unit: "s", Better: "lower"},
	{Name: "runtime.stall_decode_wait_s", Unit: "s", Better: "lower"},
	{Name: "runtime.stall_queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "runtime.stall_recovery_s", Unit: "s", Better: "lower"},
	{Name: "runtime.stall_total_s", Unit: "s", Better: "lower"},
	{Name: "runtime.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "runtime.train_s", Unit: "s", Better: "lower"},
	{Name: "runtime.load_s", Unit: "s", Better: "lower"},
	{Name: "preproc.job_s", Unit: "s", Better: "lower"},
	{Name: "preproc.jobs", Unit: "count", Better: "lower"},
	// runtime.Stats of the traced run, and allocator deltas of the
	// untraced reference run beside it.
	{Name: "runtime.cache_hit_ratio", Unit: "share", Better: "higher"},
	{Name: "runtime.remote_hits", Unit: "count", Better: "higher"},
	{Name: "runtime.pfs_reads", Unit: "count", Better: "lower"},
	{Name: "runtime.pfs_retries", Unit: "count", Better: "lower"},
	{Name: "runtime.prefetched", Unit: "count", Better: "higher"},
	{Name: "runtime.prefetch_share", Unit: "share", Better: "higher"},
	{Name: "runtime.failovers", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_sample", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	// Isolated ceilings: one layer driven alone through its public calls.
	{Name: "runtime.pfs_read_us", Unit: "us", Better: "lower"},
	{Name: "runtime.directory_holderbatch_ns", Unit: "ns", Better: "lower"},
	{Name: "preproc.decode_us_per_sample", Unit: "us", Better: "lower"},
	{Name: "preproc.pool_batch_us", Unit: "us", Better: "lower"},
	{Name: "allreduce.average_us_8r", Unit: "us", Better: "lower"},
	{Name: "sampler.batch_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.lobster_getput_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.maintain_us", Unit: "us", Better: "lower"},
	{Name: "distcache.getbatch_ns", Unit: "ns", Better: "lower"},
	{Name: "access.build_ms", Unit: "ms", Better: "lower"},
	{Name: "threadmgr.decide_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.us_per_iter", Unit: "us", Better: "lower"},
	{Name: "experiments.fig07a_s", Unit: "s", Better: "lower"},
	{Name: "experiments.tab-hitratio_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig10_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig11_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig07c_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig07d_s", Unit: "s", Better: "lower"},
	// kv tier: wire floor (one client, one op in flight), per-op tails of
	// the mixed traffic, server counters, client-side instrumented sums.
	{Name: "kvstore.get_rtt_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.multiget32_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.put_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.get_p999_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.multiget_p99_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.put_p99_us", Unit: "us", Better: "lower"},
	{Name: "kvstore.hit_ratio", Unit: "share", Better: "higher"},
	{Name: "kvstore.evictions", Unit: "count", Better: "lower"},
	{Name: "kvstore.shed_total", Unit: "count", Better: "lower"},
	{Name: "kvstore.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "kvstore.client_get_s", Unit: "s", Better: "lower"},
	{Name: "kvstore.client_multiget_s", Unit: "s", Better: "lower"},
	{Name: "kvstore.client_put_s", Unit: "s", Better: "lower"},
	// Price of the traced pass, and the one-layer-made-free reruns.
	{Name: "obs.enabled_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "whatif.pfs_free_gain_pct", Unit: "%", Better: "lower"},
	{Name: "whatif.remote_free_gain_pct", Unit: "%", Better: "lower"},
	{Name: "whatif.allreduce_free_gain_pct", Unit: "%", Better: "lower"},
}

// row is one printed measurement of the end-to-end pass.
type row struct {
	Name  string
	Unit  string
	Value float64
	// N is the sample count behind a median or percentile (0 otherwise).
	N int
	// Slot names the endToEnd metric this row feeds ("" for a row that is
	// printed only); the slot's value is Value*Scale.
	Slot  string
	Scale float64
}

// result is what one workload run produced.
type result struct {
	attempted, failed int
	// problems says why outputs were judged wrong, beyond failed ops.
	problems []string
	rows     []row              // end-to-end pass
	layers   map[string]float64 // traced pass, keyed by perLayer name
	notes    []string
}

// problem records why an output was judged wrong, once however often
// it recurs (a wrong golden fails every round the same way).
func (r *result) problem(format string, a ...any) {
	p := fmt.Sprintf(format, a...)
	for _, seen := range r.problems {
		if seen == p {
			return
		}
	}
	r.problems = append(r.problems, p)
}

func (r *result) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// tail is the series' windowed tail (see tail in stats.go) at the
// highest percentile, at most `want`, that it is long enough for; a run
// too short for `want` (a -short smoke) reports the lower one and says
// so.
func (r *result) tail(name string, inOrder []float64, want float64) float64 {
	for _, p := range []float64{want, 99, 95, 90, 75, 50} {
		if p > want {
			continue
		}
		if v, err := tail(inOrder, p); err == nil {
			if p != want {
				r.note("%s is p%g: %d samples are too few for p%g", name, p, len(inOrder), want)
			}
			return v
		}
	}
	r.note("%s is the maximum: %d samples are too few for any percentile", name, len(inOrder))
	return quantile(sortedCopy(inOrder), 1)
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *result) failedShare() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// finish appends the rows every workload reports the same way.
func (r *result) finish(setups []float64) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.rows = append(r.rows,
		row{Name: "setup_s", Unit: "s", Value: median(sortedCopy(setups)), N: len(setups), Slot: "setup_s"},
		row{Name: "peak_rss_mib", Unit: "MiB", Value: rss, Slot: "peak_rss_mib"},
		row{Name: "failed_share", Unit: "share", Value: r.failedShare()},
	)
	return nil
}

// contractMetric and contractLine are the last line of a workload run's
// standard output, as the driver reads it.
type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

// contract folds a result into the driver's line: the endToEnd slots
// for the end-to-end pass, every perLayer metric for the traced pass.
func (r *result) contract(traced bool) (contractLine, error) {
	line := contractLine{
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]contractMetric{},
	}
	if traced {
		for _, m := range perLayer {
			line.Metrics[m.Name] = contractMetric{Value: r.layers[m.Name], Unit: m.Unit}
		}
		for name := range r.layers {
			if _, ok := line.Metrics[name]; !ok {
				return line, fmt.Errorf("layer metric %q is not declared in perLayer", name)
			}
		}
		return line, nil
	}
	for _, row := range r.rows {
		if row.Slot == "" {
			continue
		}
		scale := row.Scale
		if scale == 0 {
			scale = 1
		}
		line.Metrics[row.Slot] = contractMetric{Value: row.Value * scale}
	}
	for _, m := range endToEnd {
		got, ok := line.Metrics[m.Name]
		if !ok || got.Value <= 0 {
			return line, fmt.Errorf("end-to-end metric %q missing or not positive (%v)", m.Name, got.Value)
		}
		got.Unit = m.Unit
		line.Metrics[m.Name] = got
	}
	return line, nil
}

// table renders the human-readable table of one run.
func (r *result) table(workload string, traced bool) string {
	w := &strings.Builder{}
	if traced {
		names := make([]string, 0, len(r.layers))
		for name := range r.layers {
			names = append(names, name)
		}
		sort.Strings(names)
		units := map[string]string{}
		for _, m := range perLayer {
			units[m.Name] = m.Unit
		}
		for _, name := range names {
			fmt.Fprintf(w, "%-10s %-36s %14.4f %s\n", workload, name, r.layers[name], units[name])
		}
	} else {
		for _, row := range r.rows {
			extra := ""
			if row.N > 0 {
				extra = fmt.Sprintf("  n=%d", row.N)
			}
			if row.Slot != "" && row.Slot != row.Name {
				extra += "  -> " + row.Slot
			}
			fmt.Fprintf(w, "%-10s %-36s %14.4f %s%s\n", workload, row.Name, row.Value, row.Unit, extra)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-10s note: %s\n", workload, n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "%-10s WRONG: %s\n", workload, p)
	}
	return w.String()
}
