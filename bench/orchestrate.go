package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env stamps a set of results with where they were measured.
type env struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
}

func stampEnv(o options) env {
	e := env{
		GoVersion: goruntime.Version(), NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		Kernel: "unknown", Commit: "unknown", Seed: o.seed, RunSeconds: o.seconds,
	}
	if buf, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(buf))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// childRun is one subprocess's outcome as the orchestrator records it.
type childRun struct {
	Workload string       `json:"workload"`
	Pass     string       `json:"pass"`
	Line     contractLine `json:"result"`
	// Problem is set when the run gave no usable result: it crashed, the
	// watchdog killed it, or its last line was not the contract object.
	Problem string `json:"problem,omitempty"`
}

// watchdogLimit is the wall-clock allowance of one child: three times
// its expected length, which is the measured time plus set-up cycles,
// fixed-work passes and teardown.
func watchdogLimit(seconds float64) time.Duration {
	return 3 * time.Duration((seconds+10)*float64(time.Second))
}

// runChild runs one subprocess to completion under the watchdog,
// echoing the child's table, and parses its last line. On expiry the
// child gets SIGQUIT — the Go runtime answers with a dump of every
// goroutine on standard error and exits — and the dump is saved as
// <outDir>/<name>.goroutines.txt. A child that ignores SIGQUIT is killed
// ten seconds later.
func runChild(limit time.Duration, outDir, name, exe string, args, extraEnv []string) (contractLine, error) {
	var line contractLine
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGQUIT) }
	cmd.WaitDelay = 10 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	waitErr := cmd.Run()
	if ctx.Err() != nil {
		dump := filepath.Join(outDir, name+".goroutines.txt")
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return line, fmt.Errorf("watchdog fired after %v; saving the dump: %w", limit, err)
		}
		if err := os.WriteFile(dump, stderr.Bytes(), 0o644); err != nil {
			return line, fmt.Errorf("watchdog fired after %v; saving the dump: %w", limit, err)
		}
		return line, fmt.Errorf("watchdog fired after %v; goroutine dump in %s", limit, dump)
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	fmt.Print(strings.Join(lines[:len(lines)-1], "\n"))
	if len(lines) > 1 {
		fmt.Println()
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil || line.Metrics == nil {
		if last != "" {
			fmt.Println(last)
		}
		msg := strings.TrimSpace(stderr.String())
		if i := strings.LastIndex(msg, "\n"); i >= 0 {
			msg = msg[i+1:]
		}
		if waitErr == nil {
			waitErr = errors.New("exit 0")
		}
		return contractLine{}, fmt.Errorf("no result (%v): %s", waitErr, msg)
	}
	if waitErr != nil && line.Correct {
		// E.g. the race detector's exit status after a report.
		return contractLine{}, fmt.Errorf("reported a correct result but %v", waitErr)
	}
	return line, nil
}

// orchestrate runs every selected workload and pass in its own
// subprocess and prints every metric by name. It reports false when any
// run was wrong, missing or too noisy.
func orchestrate(o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	selected := workloads
	if o.workload != "" {
		w, _ := findWorkload(o.workload)
		selected = []workload{w}
	}
	var passes []string
	if o.pass != "traced" {
		for i := 0; i < o.repeat; i++ {
			passes = append(passes, "e2e")
		}
	}
	if o.pass != "e2e" {
		passes = append(passes, "traced")
	}
	stamp := stampEnv(o)
	fmt.Printf("env: %s nproc=%d GOMAXPROCS=%d kernel=%s commit=%s seed=%d run_seconds=%g\n",
		stamp.GoVersion, stamp.NumCPU, stamp.GOMAXPROCS, stamp.Kernel, stamp.Commit, stamp.Seed, stamp.RunSeconds)

	ok := true
	var runs []childRun
	for _, pass := range passes {
		for _, w := range selected {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", map[string]string{"e2e": "0", "traced": "1"}[pass],
				"-golden", o.goldenDir, "-outdir", o.outDir,
			}
			if o.update {
				args = append(args, "-update-golden")
			}
			run := childRun{Workload: w.Name, Pass: pass}
			run.Line, err = runChild(watchdogLimit(o.seconds), o.outDir, w.Name, self, args, nil)
			if err != nil {
				// Nothing the run attempted is known to have finished.
				run.Problem = err.Error()
				run.Line = contractLine{Attempted: 1, Failed: 1}
				fmt.Printf("%-10s FAILED (%s pass): %v\n", w.Name, pass, err)
			}
			ok = ok && run.Line.Correct
			runs = append(runs, run)
		}
	}

	fmt.Println()
	printSummary(runs)
	if o.repeat > 1 && !printNoise(runs) {
		ok = false
	}
	if o.out != "" {
		buf, err := json.MarshalIndent(struct {
			Env  env        `json:"env"`
			Runs []childRun `json:"runs"`
		}{stamp, runs}, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(buf, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}

// printSummary prints, per run, the bounded metrics and the failed
// share; the per-layer metrics were printed by the runs themselves.
func printSummary(runs []childRun) {
	fmt.Printf("%-10s %-7s %-8s %12s", "workload", "pass", "correct", "failed_share")
	for _, m := range endToEnd {
		fmt.Printf(" %18s", m.Name+"["+m.Unit+"]")
	}
	fmt.Println()
	for _, r := range runs {
		share := 1.0
		if r.Line.Attempted > 0 {
			share = float64(r.Line.Failed) / float64(r.Line.Attempted)
		}
		fmt.Printf("%-10s %-7s %-8v %12.6f", r.Workload, r.Pass, r.Line.Correct, share)
		if r.Pass == "e2e" {
			for _, m := range endToEnd {
				fmt.Printf(" %18.4f", r.Line.Metrics[m.Name].Value)
			}
		}
		fmt.Println()
	}
}

// printNoise is the -repeat check: per workload and bounded metric, the
// median over the repeated end-to-end runs and (max-min)/median, which
// must stay within the metric's bound — the check a later change is
// held to. The interquartile range over the median, the statistic the
// driver of BENCHMARK.json holds to the same bound over ten runs, is
// printed beside it. setup_s is printed but exempt, as it is for the
// driver.
func printNoise(runs []childRun) bool {
	ok := true
	fmt.Printf("\n%-10s %-18s %14s %10s %10s %8s\n", "workload", "metric", "median", "range/med", "iqr/med", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			var vals []float64
			for _, r := range runs {
				if r.Workload == w.Name && r.Pass == "e2e" && r.Problem == "" {
					vals = append(vals, r.Line.Metrics[m.Name].Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			s, med := spread(vals), median(sortedCopy(vals))
			q1, q3, err := quartiles(vals)
			if err != nil {
				continue
			}
			verdict := ""
			if s > m.Bound && m.Name != "setup_s" {
				verdict = "  TOO NOISY"
				ok = false
			}
			fmt.Printf("%-10s %-18s %14.4f %9.2f%% %9.2f%% %7.0f%%%s\n", w.Name, m.Name, med, s*100, (q3-q1)/med*100, m.Bound*100, verdict)
		}
	}
	return ok
}
