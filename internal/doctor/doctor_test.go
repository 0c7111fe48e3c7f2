package doctor

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParseMetrics(t *testing.T) {
	text := `# HELP lobster_kvstore_ops_total ops served
# TYPE lobster_kvstore_ops_total counter
lobster_kvstore_ops_total{shard="0",op="get"} 10
lobster_kvstore_ops_total{shard="1",op="get"} 32 1700000000000
lobster_runtime_clock_overshoot_seconds_sum 1.75
escaped{msg="a \"b\" c\nd\\e"} 1
`
	m, err := ParseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Sum("lobster_kvstore_ops_total", nil); got != 42 {
		t.Errorf("Sum(ops_total) = %v, want 42", got)
	}
	if got := m.Sum("lobster_kvstore_ops_total", map[string]string{"shard": "1"}); got != 32 {
		t.Errorf("Sum(ops_total, shard=1) = %v, want 32 (timestamp mishandled?)", got)
	}
	if got := m.Sum("lobster_runtime_clock_overshoot_seconds_sum", nil); got != 1.75 {
		t.Errorf("Sum(clock_overshoot_seconds_sum) = %v, want 1.75", got)
	}
	if got := m.LabelValues("lobster_kvstore_ops_total", "shard"); len(got) != 2 || got[0] != "0" || got[1] != "1" {
		t.Errorf("LabelValues(shard) = %v, want [0 1]", got)
	}
	if got := m.Sum("escaped", map[string]string{"msg": "a \"b\" c\nd\\e"}); got != 1 {
		t.Errorf("escaped label round-trip failed: %v", got)
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	if _, err := ParseMetrics(strings.NewReader("not a metric line at all\n")); err == nil {
		t.Fatal("want error on malformed exposition text")
	}
}

// stall builds one attribution span the way the ledger flush emits it.
func stall(cause string, pid int, iter, rank, durUS float64) TraceEvent {
	return TraceEvent{
		Name: cause, Cat: "stall", Ph: "X", Pid: pid, Dur: durUS,
		Args: map[string]float64{"iter": iter, "rank": rank},
	}
}

func TestDiagnoseWindowBlamesExcess(t *testing.T) {
	tr := &Trace{}
	for iter := 0; iter < 10; iter++ {
		// Constant background: decode queueing dwarfs everything in
		// absolute seconds but has zero excess over baseline.
		tr.Events = append(tr.Events, stall("decode_wait", 0, float64(iter), 0, 5000))
		tr.Events = append(tr.Events, stall("pfs", 0, float64(iter), 0, 100))
	}
	// The fault: pfs surges only in iters [4,7).
	for iter := 4; iter < 7; iter++ {
		tr.Events = append(tr.Events, stall("pfs", 0, float64(iter), 0, 2000))
	}
	if got := tr.TopCauseInWindow(4, 7); got != "pfs" {
		t.Errorf("TopCauseInWindow(4,7) = %q, want pfs\ndiag: %+v", got, tr.DiagnoseWindow(4, 7))
	}
	diag := tr.DiagnoseWindow(4, 7)
	for _, wc := range diag {
		if wc.Cause == "decode_wait" && wc.ExcessPerIter != 0 {
			t.Errorf("constant background decode_wait has excess %v, want 0", wc.ExcessPerIter)
		}
	}
	if got := tr.TopCauseInWindow(0, 4); got == "pfs" {
		t.Errorf("healthy window blamed pfs; diag: %+v", tr.DiagnoseWindow(0, 4))
	}
}

// TestDiagnosePrefetchWindowKeepsSidesApart puts a recovery surge on the
// helpers' side of the ledger only: the prefetch diagnosis blames it, the
// demand diagnosis of the same window does not see it.
func TestDiagnosePrefetchWindowKeepsSidesApart(t *testing.T) {
	prefetch := func(cause string, iter, node, durUS float64) TraceEvent {
		return TraceEvent{
			Name: cause, Cat: "prefetch", Ph: "X", Dur: durUS,
			Args: map[string]float64{"iter": iter, "node": node},
		}
	}
	tr := &Trace{}
	for iter := 0; iter < 10; iter++ {
		tr.Events = append(tr.Events, stall("local_hit", 0, float64(iter), 0, 300))
		tr.Events = append(tr.Events, prefetch("pfs", float64(iter), 0, 1000))
		tr.Events = append(tr.Events, prefetch("peer_fetch", float64(iter), 1, 200))
	}
	for iter := 4; iter < 7; iter++ {
		tr.Events = append(tr.Events, prefetch("recovery", float64(iter), 1, 2500))
	}
	diag := tr.DiagnosePrefetchWindow(4, 7)
	if got := TopCause(diag); got != "recovery" {
		t.Errorf("prefetch side of [4,7) blames %q, want recovery\ndiag: %+v", got, diag)
	}
	if len(diag) != 3 || diag[0].Seconds != 0.0075 {
		t.Errorf("prefetch diagnosis %+v, want three causes led by 7.5ms of recovery", diag)
	}
	for _, wc := range tr.DiagnoseWindow(4, 7) {
		if wc.Cause != "local_hit" {
			t.Errorf("demand side of [4,7) holds prefetch span %+v", wc)
		}
	}
	if got := tr.TopCauseInWindow(4, 7); got != "local_hit" {
		t.Errorf("demand side of [4,7) blames %q, want its only cause local_hit", got)
	}
}

func TestTopCauseFallsBackToPipeline(t *testing.T) {
	tr := &Trace{}
	for iter := 0; iter < 6; iter++ {
		dur := 100.0
		if iter >= 3 {
			dur = 5000 // queueing regression with no data-path movement
		}
		tr.Events = append(tr.Events, stall("queue_wait", 0, float64(iter), 0, dur))
	}
	if got := tr.TopCauseInWindow(3, 6); got != "queue_wait" {
		t.Errorf("TopCauseInWindow = %q, want queue_wait when only pipeline causes moved", got)
	}
}

func TestMergeRemapsCollidingPids(t *testing.T) {
	a := &Trace{
		Events:    []TraceEvent{stall("pfs", 4242, 1, 0, 10)},
		Processes: map[int]string{4242: "node0"},
	}
	b := &Trace{
		Events:    []TraceEvent{stall("pfs", 4242, 1, 1, 10)},
		Processes: map[int]string{4242: "node1"},
	}
	m := Merge(a, b)
	if len(m.Events) != 2 || len(m.Processes) != 2 {
		t.Fatalf("merged %d events / %d processes, want 2/2", len(m.Events), len(m.Processes))
	}
	if m.Events[0].Pid == m.Events[1].Pid {
		t.Errorf("colliding pids not remapped: both %d", m.Events[0].Pid)
	}
	names := map[string]bool{}
	for _, n := range m.Processes {
		names[n] = true
	}
	if !names["node0"] || !names["node1"] {
		t.Errorf("process names lost in merge: %v", m.Processes)
	}
}

// metricsFixture is a scrape with rank 2 a clear straggler (load time
// 3.0s vs 0.5s for its peers) whose dominant cause is peer_fetch.
const metricsFixture = `lobster_runtime_stall_local_hit_seconds_sum{rank="0"} 0.4
lobster_runtime_stall_local_hit_seconds_sum{rank="1"} 0.4
lobster_runtime_stall_local_hit_seconds_sum{rank="2"} 0.5
lobster_runtime_stall_local_hit_seconds_sum{rank="3"} 0.4
lobster_runtime_stall_pfs_seconds_sum{rank="0"} 0.1
lobster_runtime_stall_pfs_seconds_sum{rank="1"} 0.1
lobster_runtime_stall_pfs_seconds_sum{rank="2"} 0.2
lobster_runtime_stall_pfs_seconds_sum{rank="3"} 0.1
lobster_runtime_stall_peer_fetch_seconds_sum{rank="2"} 2.3
lobster_runtime_stall_decode_wait_seconds_sum{rank="0"} 0.3
lobster_runtime_stall_recovery_seconds_sum{rank="2"} 0.05
lobster_runtime_stall_seconds_sum{rank="0"} 0.5
lobster_runtime_stall_seconds_sum{rank="2"} 0.6
lobster_runtime_imbalanced_iterations_total{rank="0"} 1
lobster_runtime_imbalanced_iterations_total{rank="2"} 5
lobster_runtime_failover_total 5
lobster_runtime_prefetch_pfs_seconds_sum{node="0"} 1.5
lobster_runtime_prefetch_pfs_seconds_sum{node="1"} 0.25
lobster_runtime_prefetch_peer_fetch_seconds_sum{node="1"} 0.5
lobster_runtime_prefetch_recovery_seconds_sum{node="1"} 0.2
lobster_runtime_prefetched_total{node="0"} 300
lobster_runtime_prefetched_total{node="1"} 100
lobster_runtime_workahead_total{node="0"} 120
lobster_runtime_workahead_total{node="1"} 30
lobster_runtime_prefetch_late_total{node="0"} 6
lobster_runtime_prefetch_pauses_total{node="1"} 3
lobster_runtime_clock_overshoot_seconds_bucket{le="5e-05"} 100
lobster_runtime_clock_overshoot_seconds_bucket{le="0.0001"} 180
lobster_runtime_clock_overshoot_seconds_bucket{le="0.001"} 199
lobster_runtime_clock_overshoot_seconds_bucket{le="+Inf"} 200
lobster_runtime_clock_overshoot_seconds_count 200
`

func TestAnalyzeAndReport(t *testing.T) {
	m, err := ParseMetrics(strings.NewReader(metricsFixture))
	if err != nil {
		t.Fatal(err)
	}
	// The barrier's verdicts, 24 iterations at 8 per epoch; only flagged
	// iterations name an epoch's critical rank. Epoch 0: rank 2 critical
	// in five iterations but flagged only in iteration 0, rank 0 critical
	// and flagged in iterations 1, 3 and 5. Epoch 1: ranks 3 and 1
	// alternate; iteration 8 (rank 3) alone is flagged. Epoch 2: nothing
	// flagged, so no critical rank.
	tr := &Trace{}
	for iter := 0; iter < 24; iter++ {
		verdict, critical := "balanced", 2.0
		switch {
		case iter == 1 || iter == 3 || iter == 5:
			critical = 0
		case iter >= 8 && iter < 16:
			critical = float64(1 + 2*(1-iter%2))
		}
		if iter == 0 || critical == 0 || iter == 8 {
			verdict = "imbalanced"
		}
		tr.Events = append(tr.Events, TraceEvent{
			Name: verdict, Cat: "barrier", Ph: "i",
			Args: map[string]float64{"epoch": float64(iter / 8), "critical_rank": critical},
		})
	}
	// A span that happens to carry the same args is not a verdict.
	tr.Events = append(tr.Events, TraceEvent{Name: "imbalanced", Cat: "barrier", Ph: "X",
		Args: map[string]float64{"epoch": 0, "critical_rank": 1}})
	rep := Analyze(m, tr)

	if len(rep.Ranks) != 4 {
		t.Fatalf("report covers %d ranks, want 4", len(rep.Ranks))
	}
	if got := rep.Stragglers; len(got) != 1 || got[0] != 2 {
		t.Errorf("Stragglers = %v, want [2]", got)
	}
	if len(rep.TopCauses) == 0 || rep.TopCauses[0].Cause != "peer_fetch" {
		t.Errorf("TopCauses = %+v, want peer_fetch first", rep.TopCauses)
	}
	if rep.ImbalancedIterations != 6 {
		t.Errorf("ImbalancedIterations = %v, want 6", rep.ImbalancedIterations)
	}
	want := []EpochImbalance{{Epoch: 0, Imbalanced: 0.5, CriticalRank: 0}, {Epoch: 1, Imbalanced: 0.125, CriticalRank: 3}, {Epoch: 2, CriticalRank: -1}}
	if len(rep.EpochImbalance) != len(want) {
		t.Fatalf("EpochImbalance = %+v, want %+v", rep.EpochImbalance, want)
	}
	for i, ei := range rep.EpochImbalance {
		if ei != want[i] {
			t.Errorf("EpochImbalance[%d] = %+v, want %+v", i, ei, want[i])
		}
	}
	if rep.Failovers != 5 {
		t.Errorf("Failovers = %v, want 5", rep.Failovers)
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"1. peer_fetch",
		"hidden: 77% of that ran under compute (ranks waited 1.100s)",
		"Stragglers",
		"ranks [2]",
		"Imbalanced iterations (per-rank stall spread > one training step): 6\n",
		"  epoch 0: 50.0% imbalanced, critical rank 0\n",
		"  epoch 1: 12.5% imbalanced, critical rank 3\n",
		"  epoch 2: 0.0% imbalanced\n",
		"failovers: 5, 0.250s spent in recovery reads (50.0ms avg; 0.050s by ranks, 0.200s ahead of demand)",
		"  node 0: pfs=1.500s\n",
		"  node 1: peer_fetch=0.500s pfs=0.250s recovery=0.200s\n",
		"Prefetch (helpers and idle loaders, ahead of demand; no rank waits for these):",
		"prefetch: staged 400 (150 by idle loaders), late 6 (1.5%), refusal pauses 3",
		// p50 is rank 100, the top of the first bucket; p99 is rank 198,
		// 18/19 of the way through (100us, 1ms].
		"modeled delays: 200 waits, overshoot p50 50us / p99 953us",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestReportPFSReadsPerAccess reads the storage line of the prefetch
// block from the runtime's counters: PFS reads over local hits plus
// misses, summed over nodes, and no line without demand accesses.
func TestReportPFSReadsPerAccess(t *testing.T) {
	for _, tc := range []struct {
		name, metrics, want string
	}{
		{"over-fetching", `lobster_runtime_prefetched_total{node="0"} 500
lobster_runtime_pfs_reads_total{node="0"} 420
lobster_runtime_pfs_reads_total{node="1"} 350
lobster_runtime_cache_hits_total{node="0"} 480
lobster_runtime_cache_hits_total{node="1"} 490
lobster_runtime_cache_misses_total{node="0"} 20
lobster_runtime_cache_misses_total{node="1"} 10
`, "  storage: 770 PFS reads for 1000 demand accesses (0.770 per access)\n"},
		{"no demand accesses", `lobster_runtime_prefetched_total{node="0"} 500
lobster_runtime_pfs_reads_total{node="0"} 420
`, ""},
	} {
		m, err := ParseMetrics(strings.NewReader(tc.metrics))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Analyze(m, nil).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "Prefetch (helpers") {
			t.Fatalf("%s: no prefetch block:\n%s", tc.name, out)
		}
		if got := strings.Contains(out, "storage:"); got != (tc.want != "") || !strings.Contains(out, tc.want) {
			t.Errorf("%s: report storage line, want %q:\n%s", tc.name, tc.want, out)
		}
	}
}

func TestAnalyzeEmptyInputs(t *testing.T) {
	rep := Analyze(nil, nil)
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no stall attribution found") {
		t.Errorf("empty report should say what to scrape:\n%s", buf.String())
	}
}

func TestMetricsQuantile(t *testing.T) {
	m, err := ParseMetrics(strings.NewReader(`h_bucket{node="0",le="1"} 2
h_bucket{node="0",le="2"} 4
h_bucket{node="0",le="+Inf"} 4
h_bucket{node="1",le="1"} 0
h_bucket{node="1",le="2"} 4
h_bucket{node="1",le="+Inf"} 8
empty_bucket{le="1"} 0
empty_bucket{le="+Inf"} 0
`))
	if err != nil {
		t.Fatal(err)
	}
	// Both nodes together: 2 at or below 1, 8 at or below 2, 12 in all.
	for _, c := range []struct{ q, want float64 }{
		{0.5, 1 + 4.0/6}, // rank 6, the fourth of the six in (1, 2]
		{1.0 / 12, 0.5},  // rank 1, halfway through the first bucket
		{0.99, 2},        // in +Inf: clamps to the last finite bound
	} {
		got, ok := m.Quantile("h", c.q)
		if !ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(h, %v) = %v, %v; want %v", c.q, got, ok, c.want)
		}
	}
	for _, name := range []string{"empty", "absent"} {
		if _, ok := m.Quantile(name, 0.5); ok {
			t.Errorf("Quantile(%s) reported a value without observations", name)
		}
	}
}
