package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The orchestrator re-executes its own binary once per workload. Under
// `go test` that binary is the test binary, so TestMain turns it into
// the bench command when the orchestrating test asks for it, and into a
// process that never finishes for the watchdog test.
func TestMain(m *testing.M) {
	switch os.Getenv("BENCH_TEST_ROLE") {
	case "bench":
		main()
		return
	case "hang":
		time.Sleep(time.Hour)
		return
	}
	os.Exit(m.Run())
}

// smokeSeconds keeps the whole smoke under 15 s: the runs are too short
// to mean anything, they only have to complete and check their outputs.
const smokeSeconds = "0.5"

type outFile struct {
	Env  env        `json:"env"`
	Runs []childRun `json:"runs"`
}

func orchestrateForTest(t *testing.T, args ...string) (bool, outFile) {
	t.Helper()
	t.Setenv("BENCH_TEST_ROLE", "bench")
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	o, err := parseFlags(append([]string{"-seconds", smokeSeconds, "-outdir", dir, "-out", out}, args...))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := orchestrate(o)
	if err != nil {
		t.Fatal(err)
	}
	var f outFile
	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	return ok, f
}

func metricNames(specs []metricSpec) []string {
	var names []string
	for _, m := range specs {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func lineNames(l contractLine) []string {
	var names []string
	for name := range l.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEndToEnd runs the end-to-end pass of all five workloads the
// way the one command does — subprocess, watchdog, contract line — and
// checks that each reports exactly the bounded metrics, all positive,
// with nothing failed.
//
// Under the race detector the children (this same binary) run about
// eight times slower, so only the two workloads with the most goroutines
// of the benchmark's own run there.
func TestSmokeEndToEnd(t *testing.T) {
	want := workloads
	var runs []childRun
	if raceEnabled {
		want = nil
		for _, name := range []string{"rt-8r-sw", "kv-mixed"} {
			w, _ := findWorkload(name)
			want = append(want, w)
			ok, f := orchestrateForTest(t, "-pass", "e2e", "-workload", name, "-golden", "golden")
			if !ok {
				t.Errorf("orchestrator reported failure on %s", name)
			}
			runs = append(runs, f.Runs...)
		}
	} else {
		ok, f := orchestrateForTest(t, "-pass", "e2e", "-golden", "golden")
		if !ok {
			t.Error("orchestrator reported failure")
		}
		if f.Env.GoVersion == "" || f.Env.NumCPU < 1 || f.Env.Seed != 7 {
			t.Errorf("environment stamp incomplete: %+v", f.Env)
		}
		runs = f.Runs
	}
	if len(runs) != len(want) {
		t.Fatalf("%d runs, want one per workload (%d)", len(runs), len(want))
	}
	for i, r := range runs {
		if r.Workload != want[i].Name || r.Pass != "e2e" || r.Problem != "" {
			t.Errorf("run %d is %s/%s (problem %q), want %s/e2e", i, r.Workload, r.Pass, r.Problem, want[i].Name)
		}
		if !r.Line.Correct || r.Line.Failed != 0 || r.Line.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Workload, r.Line.Correct, r.Line.Attempted, r.Line.Failed)
		}
		if got, want := lineNames(r.Line), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s reports %v, want %v", r.Workload, got, want)
		}
		for _, m := range endToEnd {
			if got := r.Line.Metrics[m.Name]; got.Value <= 0 || got.Unit != m.Unit {
				t.Errorf("%s %s = %v %q, want a positive value in %q", r.Workload, m.Name, got.Value, got.Unit, m.Unit)
			}
		}
	}
}

// TestSmokeTraced runs the traced pass of the cheapest runtime workload
// and of the kv workload: every per-layer metric is present, the layers
// the workload crosses are non-zero, the ones it bypasses are zero, and
// the trace file is written.
func TestSmokeTraced(t *testing.T) {
	for _, tc := range []struct {
		workload      string
		crosses, skip []string
	}{
		{"rt-1r-sw", []string{"runtime.stall_decode_wait_s", "runtime.stall_total_s", "preproc.jobs", "preproc.pool_batch_us", "runtime.pfs_read_us"},
			[]string{"runtime.stall_peer_fetch_s", "allreduce.average_us_8r", "kvstore.get_rtt_us", "cache.lobster_getput_ns"}},
		{"kv-mixed", []string{"kvstore.get_rtt_us", "kvstore.client_get_s", "kvstore.hit_ratio", "kvstore.allocs_per_op"},
			[]string{"runtime.stall_total_s", "preproc.jobs", "pipeline.us_per_iter"}},
	} {
		if raceEnabled && tc.workload != "kv-mixed" {
			continue // see TestSmokeEndToEnd
		}
		ok, f := orchestrateForTest(t, "-pass", "traced", "-workload", tc.workload, "-golden", "golden")
		if !ok || len(f.Runs) != 1 || !f.Runs[0].Line.Correct {
			t.Fatalf("%s traced pass failed: ok=%v runs=%+v", tc.workload, ok, f.Runs)
		}
		line := f.Runs[0].Line
		if got, want := lineNames(line), metricNames(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s reports %v, want %v", tc.workload, got, want)
		}
		for _, name := range tc.crosses {
			if line.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", tc.workload, name, line.Metrics[name].Value)
			}
		}
		for _, name := range tc.skip {
			if line.Metrics[name].Value != 0 {
				t.Errorf("%s: %s = %v, want 0 (layer not on this workload's path)", tc.workload, name, line.Metrics[name].Value)
			}
		}
	}
}

// TestCorruptGoldenFailsThatWorkload pins a wrong DataFold for one
// workload: its run must come back incorrect with failed ops, and the
// command must report failure.
func TestCorruptGoldenFailsThatWorkload(t *testing.T) {
	if raceEnabled {
		t.Skip("a golden comparison has no concurrency to check; see TestSmokeEndToEnd")
	}
	g, err := loadGoldens("golden")
	if err != nil {
		t.Fatal(err)
	}
	g.dir = t.TempDir()
	g.RT["rt-1r-sw"]["7"] = "1"
	if err := g.save(); err != nil {
		t.Fatal(err)
	}
	ok, f := orchestrateForTest(t, "-pass", "e2e", "-workload", "rt-1r-sw", "-golden", g.dir)
	if ok || len(f.Runs) != 1 {
		t.Fatalf("corrupt golden went unnoticed: ok=%v runs=%+v", ok, f.Runs)
	}
	if line := f.Runs[0].Line; line.Correct || line.Failed == 0 || line.Failed >= line.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want incorrect with only the golden epoch's samples failed",
			line.Correct, line.Attempted, line.Failed)
	}
}

func TestGoldenChecks(t *testing.T) {
	g := &goldens{
		RT:  map[string]map[string]string{"w": {"7": "42"}},
		Sim: map[string]map[string]map[string]float64{"tiny": {"fig": {"a": 0.1, "b": 2}}},
	}
	for _, tc := range []struct {
		name    string
		err     error
		wantErr string
	}{
		{"fold matches", g.checkFold("w", 7, 42, false), ""},
		{"fold differs", g.checkFold("w", 7, 43, false), "DataFold 43, golden 42"},
		{"seed without a golden", g.checkFold("w", 8, 1, false), ""},
		{"figure matches", g.checkFigure("tiny", "fig", map[string]float64{"a": 0.1, "b": 2}, false), ""},
		{"figure value differs in the last bit", g.checkFigure("tiny", "fig", map[string]float64{"a": 0.10000000000000002, "b": 2}, false), `value "a"`},
		{"figure lost a value", g.checkFigure("tiny", "fig", map[string]float64{"a": 0.1}, false), "reports 1 values"},
		{"figure renamed a value", g.checkFigure("tiny", "fig", map[string]float64{"a": 0.1, "c": 2}, false), `value "b"`},
		{"figure without a golden", g.checkFigure("tiny", "other", nil, false), "no golden"},
		{"scale without a golden", g.checkFigure("small", "fig", nil, false), "no golden"},
	} {
		switch {
		case tc.wantErr == "" && tc.err != nil:
			t.Errorf("%s: %v", tc.name, tc.err)
		case tc.wantErr != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, tc.err, tc.wantErr)
		}
	}
	if err := g.checkFold("w", 9, 5, true); err != nil || g.RT["w"]["9"] != "5" {
		t.Errorf("update did not pin the fold: %v %v", err, g.RT)
	}
}

// TestWatchdog gives the watchdog a child that never finishes: it must
// come back with an error naming the dump, and the dump must be the Go
// runtime's goroutine listing.
func TestWatchdog(t *testing.T) {
	dir := t.TempDir()
	start := time.Now()
	_, err := runChild(300*time.Millisecond, dir, "stuck", os.Args[0], nil, []string{"BENCH_TEST_ROLE=hang"})
	if err == nil || !strings.Contains(err.Error(), "watchdog fired") {
		t.Fatalf("err = %v, want the watchdog", err)
	}
	if took := time.Since(start); took > 8*time.Second {
		t.Errorf("watchdog took %v to give up on a 300ms limit", took)
	}
	dump, err := os.ReadFile(filepath.Join(dir, "stuck.goroutines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "SIGQUIT") || !strings.Contains(string(dump), "goroutine ") {
		t.Errorf("dump is not a goroutine listing:\n%s", dump)
	}
}

func TestParseFlags(t *testing.T) {
	for _, tc := range []struct {
		args      string
		wantChild bool
		wantErr   string
	}{
		{args: "--workload kv-mixed --seed 3 --seconds 20 --trace 0", wantChild: true},
		{args: "--workload kv-mixed --seed 3 --seconds 20 --trace 1", wantChild: true},
		{args: "-workload kv-mixed -pass e2e"},
		{args: "-seed 9 -repeat 3"},
		{args: "-trace 1"},
		{args: "-workload nope", wantErr: "unknown workload"},
		{args: "-pass fast", wantErr: "-pass"},
		{args: "-trace 2 -workload kv-mixed", wantErr: "-trace"},
		{args: "-seconds 0", wantErr: "-seconds"},
		{args: "-repeat 0", wantErr: "-repeat"},
		{args: "extra", wantErr: "unexpected argument"},
	} {
		o, err := parseFlags(strings.Fields(tc.args))
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%q: error %v, want one containing %q", tc.args, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case o.child != tc.wantChild:
			t.Errorf("%q: child=%v, want %v", tc.args, o.child, tc.wantChild)
		}
	}
	if o, err := parseFlags([]string{"-short"}); err != nil || o.seconds != shortSeconds {
		t.Errorf("-short: seconds=%v err=%v", o.seconds, err)
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json to the tables the
// program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []workload   `json:"workloads"`
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, the program has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", f.PerLayer, perLayer)
	}
	hasSetup := false
	for _, m := range f.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}
