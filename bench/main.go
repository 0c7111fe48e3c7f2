// Command bench is the repository's one benchmark (see README.md in
// this directory and BENCHMARK.json at the repository root).
//
//	go run ./bench -seed 7            every workload, both passes, one table
//	go run ./bench -workload kv-mixed -pass e2e
//	go run ./bench -repeat 3          noise floor of the end-to-end pass
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//
// The last form is what the driver of BENCHMARK.json runs: it measures
// one workload in this process and prints the contract's JSON object as
// the last line. Every other form is the orchestrator: it runs that
// same form once per workload and pass, each in its own subprocess under
// a watchdog, and prints what they report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

const (
	// setupCycles is how many times a run sets up; setup_s is the median.
	setupCycles = 3
	// defaultSeconds is run_seconds of BENCHMARK.json.
	defaultSeconds = 24
	shortSeconds   = 2
	// simSmallSeconds is the run length below which the traced pass of
	// sim-figs stays at tiny scale (its small-scale pass is 20 s of fixed
	// work, too long for a smoke).
	simSmallSeconds = 10
	// traceEvents is the trace ring's capacity: the trace file holds the
	// most recent spans of the traced run.
	traceEvents = 1 << 16
)

// ceilingBudget is how long each isolated ceiling is driven.
func ceilingBudget(seconds float64) time.Duration {
	return time.Duration(seconds / 100 * float64(time.Second))
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(a runArgs, g *goldens) (*result, error)
}

func rtWorkload(name, why string) workload {
	return workload{Name: name, Why: why, run: func(a runArgs, g *goldens) (*result, error) { return runRT(name, a, g) }}
}

var workloads = []workload{
	rtWorkload("rt-1r-sw", "one rank, modeled I/O and compute ~us: one rank's serial software path is the whole cost, nothing contends"),
	rtWorkload("rt-8r-sw", "2 nodes x 4 GPUs, same software path under contention: directory, node caches, peer fetch, 8-rank allreduce"),
	rtWorkload("rt-8r-io", "same topology, TimeScale 0.05: modeled PFS and peer latency on the critical path; bypass for software-path savings"),
	{Name: "kv-mixed", Why: "3 loopback kv shards over capacity, 2 closed-loop clients, 70% Get 20% MultiGet 10% Put: reads and writes share connections",
		run: func(a runArgs, _ *goldens) (*result, error) { return runKV(a) }},
	{Name: "sim-figs", Why: "six simulator figures in rounds, serial: pure single-goroutine CPU through the decision core; bypass for runtime and kv changes",
		run: runSim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runArgs are one workload run's inputs.
type runArgs struct {
	seed    uint64
	seconds float64
	traced  bool
	update  bool // pin goldens instead of checking them
	outDir  string
}

// cycles is how many times the run sets up: the end-to-end pass reports
// the median of setupCycles, the traced pass needs only the one it uses.
func (a runArgs) cycles() int {
	if a.traced {
		return 1
	}
	return setupCycles
}

// window is the length of the windows a steady state is cut into:
// forty-eight to a run, half a second at the recorded run length.
func (a runArgs) window() time.Duration {
	return time.Duration(a.seconds / 48 * float64(time.Second))
}

// writeTrace writes the ring's spans as <dir>/<workload>.trace.json.
func writeTrace(ring *obs.TraceRing, dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.json"))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := ring.WriteJSON(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	pass      string
	short     bool
	repeat    int
	out       string
	update    bool
	goldenDir string
	outDir    string
	// child: -workload and -trace were both given, so this process
	// measures that one workload itself.
	child bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (with -trace: measure it in this process)")
	fs.Uint64Var(&o.seed, "seed", 7, "seed the workloads' inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long one run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end pass, tracing off; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.pass, "pass", "all", "orchestrator: e2e, traced or all")
	fs.BoolVar(&o.short, "short", false, "about 10x shorter runs: a smoke test, never a recorded number")
	fs.IntVar(&o.repeat, "repeat", 1, "orchestrator: run the end-to-end pass this many times and check each metric's spread against its bound")
	fs.StringVar(&o.out, "out", "", "orchestrator: also write every result, with the environment, to this JSON file")
	fs.BoolVar(&o.update, "update-golden", false, "rewrite the goldens from this run (refused with uncommitted changes outside bench/)")
	fs.StringVar(&o.goldenDir, "golden", "bench/golden", "directory of the golden outputs")
	fs.StringVar(&o.outDir, "outdir", "bench/out", "directory for trace files and watchdog dumps")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "trace" {
			o.child = o.workload != ""
		}
	})
	if o.short {
		o.seconds = shortSeconds
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return o, fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	switch {
	case o.seconds <= 0:
		return o, fmt.Errorf("-seconds %g must be positive", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace %d must be 0 or 1", o.trace)
	case o.pass != "e2e" && o.pass != "traced" && o.pass != "all":
		return o, fmt.Errorf("-pass %q must be e2e, traced or all", o.pass)
	case o.repeat < 1:
		return o, fmt.Errorf("-repeat %d must be at least 1", o.repeat)
	}
	return o, nil
}

// measure is the child: one workload, one pass, in this process. It
// prints the run's table, then the contract line, and reports whether
// the outputs were correct.
func measure(o options) (bool, error) {
	w, _ := findWorkload(o.workload)
	g, err := loadGoldens(o.goldenDir)
	if err != nil {
		return false, err
	}
	res, err := w.run(runArgs{seed: o.seed, seconds: o.seconds, traced: o.trace == 1, update: o.update, outDir: o.outDir}, g)
	if err != nil {
		return false, fmt.Errorf("%s: %w", w.Name, err)
	}
	if o.update {
		if err := g.save(); err != nil {
			return false, err
		}
	}
	line, err := res.contract(o.trace == 1)
	if err != nil {
		return false, fmt.Errorf("%s: %w", w.Name, err)
	}
	text, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Print(res.table(w.Name, o.trace == 1))
	fmt.Println(string(text))
	return line.Correct, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if o.update {
		if err := refuseDirtyTree(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	run := orchestrate
	if o.child {
		run = measure
	}
	ok, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", strings.TrimSpace(err.Error()))
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
