package main

import (
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/experiments"
)

// simFigures are the six experiments of sim-figs, cheapest first: a
// single-node and a multi-node comparison, the hit-ratio table, the
// utilization and ablation studies and the scalability sweep, which
// together cross pipeline, every cache policy, access, distcache,
// threadmgr and perfmodel.
var simFigures = []string{"fig07a", "tab-hitratio", "fig10", "fig11", "fig07c", "fig07d"}

// simSeed is fixed: the figures' inputs are the catalogue above, and a
// fixed seed is what lets every Report.Values entry be compared with a
// golden exactly. --seed does not change this workload's inputs.
const simSeed = 42

// runFigures runs every figure once, serially, at the given scale and
// returns each one's wall seconds and how many differ from the golden.
func runFigures(scale dataset.Scale, g *goldens, update bool, res *result) (secs []float64, err error) {
	for _, id := range simFigures {
		exp, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := exp.Run(experiments.Params{Scale: scale, Seed: simSeed})
		secs = append(secs, time.Since(start).Seconds())
		res.attempted++
		if err != nil {
			res.failed++
			res.problem("%s: %v", id, err)
			continue
		}
		if err := g.checkFigure(scale.String(), id, rep.Values, update); err != nil {
			res.failed++
			res.problem("%v", err)
		}
	}
	return secs, nil
}

// runSim is the sim-figs workload.
//
// The end-to-end pass runs the six figures at tiny scale, round after
// round, for --seconds: a figure then takes 7 to 450 ms, short against
// the seconds-long slow spells of the sandbox's vCPUs, and some twenty
// rounds give every figure a better tenth to report (see windowed). One
// pass at small scale — 20 s of fixed work, one sample per figure —
// spread by 18% (interquartile) over ten runs of one binary, which no
// bound could hold; it is kept as the traced pass, where each figure's
// small-scale seconds are a per-layer metric. Every run of a figure, at
// either scale, is compared with its golden.
//
// A set-up cycle is one more round, untimed: it grows the heap to
// working size.
func runSim(a runArgs, g *goldens) (*result, error) {
	res := &result{layers: map[string]float64{}}
	var setups []float64
	for i := 0; i < a.cycles(); i++ {
		start := time.Now()
		if _, err := runFigures(dataset.ScaleTiny, g, a.update, res); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if a.traced {
		scale := dataset.ScaleSmall
		if a.seconds < simSmallSeconds {
			scale = dataset.ScaleTiny
		}
		secs, err := runFigures(scale, g, a.update, res)
		if err != nil {
			return nil, err
		}
		for i, id := range simFigures {
			res.layers["experiments."+id+"_s"] = secs[i]
		}
		return res, simCeilings(ceilingBudget(a.seconds), res.layers)
	}

	perFigure := make([][]float64, len(simFigures))
	var roundCPU []float64
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start).Seconds() < a.seconds; rounds++ {
		cpu0, err := cpuSeconds()
		if err != nil {
			return nil, err
		}
		secs, err := runFigures(dataset.ScaleTiny, g, false, res)
		if err != nil {
			return nil, err
		}
		cpu1, err := cpuSeconds()
		if err != nil {
			return nil, err
		}
		for i, s := range secs {
			perFigure[i] = append(perFigure[i], s)
		}
		roundCPU = append(roundCPU, cpu1-cpu0)
	}
	best := make([]float64, len(simFigures))
	var wall float64
	for i, secs := range perFigure {
		best[i] = quantile(sortedCopy(secs), betterTenth)
		wall += best[i]
	}
	sort.Float64s(best)
	rounds, n := len(roundCPU), float64(len(simFigures))
	res.rows = []row{
		{Name: "sim_wall_s", Unit: "s", Value: wall, N: rounds},
		{Name: "sim_figs_per_s", Unit: "1/s", Value: n / wall, N: rounds, Slot: "throughput_per_s"},
		{Name: "sim_fig_p50_ms", Unit: "ms", Value: median(best) * 1e3, N: len(best), Slot: "op_p50_ms"},
		{Name: "sim_fig_max_ms", Unit: "ms", Value: best[len(best)-1] * 1e3, N: len(best), Slot: "op_p99_ms"},
		{Name: "sim_cpu_ms_per_kfig", Unit: "ms", Value: quantile(sortedCopy(roundCPU), betterTenth) * 1e6 / n, N: rounds, Slot: "cpu_ms_per_kop"},
		{Name: "steady_s", Unit: "s", Value: time.Since(start).Seconds()},
	}
	return res, res.finish(setups)
}
