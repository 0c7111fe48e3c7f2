package main

import (
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/par"
)

// figuresCmd regenerates the paper's tables and figures: it runs every
// experiment (or a selected one) at the chosen scale and prints the
// reproduced rows/series with the paper's published values alongside.
//
//	lobster-sim figures                        # everything at small scale
//	lobster-sim figures -experiment fig07a     # one figure
//	lobster-sim figures -scale medium -seed 7
//	lobster-sim figures -parallel 1            # serial (identical output)
func figuresCmd(args []string) error {
	fs := flag.NewFlagSet("lobster-sim figures", flag.ExitOnError)
	var (
		scaleName = fs.String("scale", "small", "tiny | small | medium | full")
		expID     = fs.String("experiment", "", "run only this experiment id (e.g. fig07a); empty = all")
		epochs    = fs.Int("epochs", 0, "override epochs (0 = per-scale default)")
		seed      = fs.Uint64("seed", 42, "base seed")
		parallel  = fs.Int("parallel", goruntime.GOMAXPROCS(0),
			"worker budget shared by independent experiments and within-experiment campaigns (1 = serial; reports are identical for any value)")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		mdPath = fs.String("markdown", "", "also write the full report as a Markdown file")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits on a bad flag

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-13s %s\n              paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return nil
	}
	scale, err := dataset.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	// One bounded pool serves both levels of fan-out: independent
	// experiments below, and each experiment's independent campaigns via
	// Params.Pool. Nested fan-outs recruit spare workers without blocking
	// (see internal/par), so total concurrency stays <= -parallel.
	var pool *par.Pool
	if *parallel > 1 {
		pool = par.NewPool(*parallel)
	}
	params := experiments.Params{Scale: scale, Epochs: *epochs, Seed: *seed, Pool: pool}

	todo := experiments.All()
	if *expID != "" {
		e, err := experiments.ByID(*expID)
		if err != nil {
			return err
		}
		todo = []experiments.Experiment{e}
	}
	// Experiments run concurrently but render strictly in figure order from
	// the index-slotted results, so stdout and the markdown file list them
	// identically at any -parallel value (only the timings vary).
	type outcome struct {
		rep *experiments.Report
		dur time.Duration
	}
	outs, err := par.Map(pool, len(todo), func(i int) (outcome, error) {
		start := time.Now()
		rep, err := todo[i].Run(params)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", todo[i].ID, err)
		}
		return outcome{rep: rep, dur: time.Since(start)}, nil
	})
	if err != nil {
		return err
	}
	var md strings.Builder
	if *mdPath != "" {
		fmt.Fprintf(&md, "# Lobster reproduction report\n\nscale: %s, seed: %d\n\n", scale, *seed)
	}
	for i, e := range todo {
		rep, dur := outs[i].rep, outs[i].dur
		fmt.Printf("################ %s — %s\n", e.ID, e.Title)
		fmt.Printf("paper: %s\n\n", e.Paper)
		fmt.Print(rep.Text())
		fmt.Printf("(%.1fs)\n\n", dur.Seconds())
		if *mdPath != "" {
			fmt.Fprintf(&md, "## %s — %s\n\npaper: %s\n\n```\n", e.ID, e.Title, e.Paper)
			for _, line := range rep.Lines {
				md.WriteString(line)
				md.WriteByte('\n')
			}
			fmt.Fprintf(&md, "```\n\nheadline values: %s\n\nwall time: %.1fs\n\n",
				strings.Join(rep.SortedValues(), ", "), dur.Seconds())
		}
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			return err
		}
		fmt.Printf("markdown report written to %s\n", *mdPath)
	}
	return nil
}
