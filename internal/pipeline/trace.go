package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/plan"
)

// Trace rendering: the textual reproduction of Figure 3 ("Execution time
// breakdown for the training pipeline"), plus the summary statistics the
// motivation section draws from it (imbalance frequency, bottleneck-shift
// counts).

// SliceTrace selects the iterations Fig. 3 displays: "eight each in the
// beginning, middle, and end" of an epoch.
func SliceTrace(records []plan.IterRecord, epoch, perSection int) []plan.IterRecord {
	var epochRecs []plan.IterRecord
	for _, r := range records {
		if r.Epoch == epoch {
			epochRecs = append(epochRecs, r)
		}
	}
	n := len(epochRecs)
	if n == 0 {
		return nil
	}
	if n <= 3*perSection {
		return epochRecs
	}
	out := make([]plan.IterRecord, 0, 3*perSection)
	out = append(out, epochRecs[:perSection]...)
	mid := n/2 - perSection/2
	out = append(out, epochRecs[mid:mid+perSection]...)
	out = append(out, epochRecs[n-perSection:]...)
	return out
}

// RenderTrace draws the breakdown of the selected GPUs as horizontal
// stacked bars, one row per (iteration, GPU): L=loading, P=preprocessing,
// T=training, s=stall (waiting for own data), i=idle (waiting for
// stragglers). widthPerSecond scales bar length.
func RenderTrace(records []plan.IterRecord, gpus []int, widthPerSecond float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-5s %8s  %s\n", "iter", "gpu", "batch(s)", "L=load P=preproc T=train s=stall i=idle")
	for _, rec := range records {
		for _, g := range gpus {
			if g < 0 || g >= len(rec.PerGPU) {
				continue
			}
			bar := traceBar(rec.PerGPU[g], widthPerSecond)
			fmt.Fprintf(&b, "e%02d/i%03d  g%-4d %8.4f  %s\n", rec.Epoch, rec.Iter, g, rec.BatchTime, bar)
		}
	}
	return b.String()
}

func traceBar(g plan.GPUIter, scale float64) string {
	var b strings.Builder
	b.WriteString(strings.Repeat("L", barChars(g.Load, scale)))
	b.WriteString(strings.Repeat("P", barChars(g.Preproc, scale)))
	b.WriteString(strings.Repeat("s", barChars(g.Stall, scale)))
	b.WriteString(strings.Repeat("T", barChars(g.Train, scale)))
	b.WriteString(strings.Repeat("i", barChars(g.Idle, scale)))
	return b.String()
}

func barChars(seconds, scale float64) int {
	n := int(seconds * scale)
	if n < 0 {
		n = 0
	}
	if n > 400 {
		n = 400
	}
	return n
}

// TraceStats summarises a trace the way Section 3 does.
type TraceStats struct {
	Iterations int
	// ImbalancedFrac is the fraction of iterations plan.Imbalance flags
	// (Observation 1: "data load imbalances occur ... in 65.3% of our
	// iterations").
	ImbalancedFrac float64
	// LoadBottleneckFrac is the fraction of (iteration, GPU) pairs whose
	// loading stage exceeded the training stage (Observation 2's
	// bottleneck shifts).
	LoadBottleneckFrac float64
	// BottleneckShifts counts iteration-to-iteration changes of the
	// bottleneck stage on some GPU.
	BottleneckShifts int
	// MeanIdleFrac is the average fraction of the batch time GPUs spend
	// idle (stall + barrier wait).
	MeanIdleFrac float64
}

// AnalyzeTrace computes trace statistics; trainTime is the training step
// the imbalance rule compares against.
func AnalyzeTrace(records []plan.IterRecord, trainTime float64) TraceStats {
	var st TraceStats
	st.Iterations = len(records)
	if len(records) == 0 {
		return st
	}
	var loadBound, pairs int
	var idleSum float64
	prevBound := make([]bool, len(records[0].PerGPU))
	for ri, rec := range records {
		for g, gi := range rec.PerGPU {
			bound := gi.Load > gi.Train
			if bound {
				loadBound++
			}
			if ri > 0 && bound != prevBound[g] {
				st.BottleneckShifts++
			}
			prevBound[g] = bound
			if rec.BatchTime > 0 {
				idleSum += (gi.Stall + gi.Idle) / rec.BatchTime
			}
			pairs++
		}
		if imbalanced, _ := plan.Imbalance(rec.PerGPU, trainTime); imbalanced {
			st.ImbalancedFrac++
		}
	}
	st.ImbalancedFrac /= float64(len(records))
	st.LoadBottleneckFrac = float64(loadBound) / float64(pairs)
	st.MeanIdleFrac = idleSum / float64(pairs)
	return st
}
