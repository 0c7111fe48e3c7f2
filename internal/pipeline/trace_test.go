package pipeline

import (
	"strings"
	"testing"

	"repro/internal/plan"
)

func traceRecord(epoch, iter int, stalls ...float64) plan.IterRecord {
	rec := plan.IterRecord{Epoch: epoch, Iter: iter, BatchTime: 0.1}
	for _, s := range stalls {
		rec.PerGPU = append(rec.PerGPU, plan.GPUIter{
			Load: 0.02, Preproc: 0.01, Train: 0.05, Stall: s, Idle: 0.01,
		})
	}
	return rec
}

func TestSliceSelectsSections(t *testing.T) {
	var recs []plan.IterRecord
	for i := 0; i < 100; i++ {
		recs = append(recs, traceRecord(1, i, 0, 0))
	}
	// Mix in another epoch that must be ignored.
	recs = append(recs, traceRecord(2, 0, 0, 0))
	got := SliceTrace(recs, 1, 8)
	if len(got) != 24 {
		t.Fatalf("slice length %d, want 24", len(got))
	}
	if got[0].Iter != 0 || got[7].Iter != 7 {
		t.Fatal("beginning section wrong")
	}
	if got[16].Iter != 92 || got[23].Iter != 99 {
		t.Fatalf("end section wrong: %d..%d", got[16].Iter, got[23].Iter)
	}
	for _, r := range got {
		if r.Epoch != 1 {
			t.Fatal("wrong epoch included")
		}
	}
}

func TestSliceShortEpoch(t *testing.T) {
	recs := []plan.IterRecord{traceRecord(0, 0, 0), traceRecord(0, 1, 0)}
	got := SliceTrace(recs, 0, 8)
	if len(got) != 2 {
		t.Fatalf("short epoch slice length %d", len(got))
	}
	if SliceTrace(recs, 5, 8) != nil {
		t.Fatal("missing epoch should give nil")
	}
}

func TestRenderContainsStages(t *testing.T) {
	recs := []plan.IterRecord{traceRecord(0, 3, 0.02, 0.0)}
	out := RenderTrace(recs, []int{0, 1}, 200)
	if !strings.Contains(out, "e00/i003") {
		t.Fatalf("missing iteration label:\n%s", out)
	}
	if !strings.Contains(out, "T") || !strings.Contains(out, "L") {
		t.Fatalf("missing stage bars:\n%s", out)
	}
	// GPU 0 stalls (0.02s), GPU 1 does not: only one row may contain 's'.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[1], "s") {
		t.Fatal("stalling GPU shows no stall")
	}
	if strings.Contains(lines[2], "s") {
		t.Fatal("non-stalling GPU shows stall")
	}
	// Out-of-range GPU indices are skipped silently.
	if out2 := RenderTrace(recs, []int{99}, 100); strings.Count(out2, "\n") != 1 {
		t.Fatal("out-of-range GPU not skipped")
	}
}

func TestAnalyzeImbalanceAndBottlenecks(t *testing.T) {
	recs := []plan.IterRecord{
		traceRecord(0, 0, 0.00, 0.00), // balanced
		traceRecord(0, 1, 0.06, 0.00), // spread 0.06 > 0.05 => imbalanced
		traceRecord(0, 2, 0.01, 0.01), // balanced
	}
	// Make GPU 0 load-bound in iteration 1 only: creates 2 shifts
	// (0->1 and 1->2).
	recs[1].PerGPU[0].Load = 0.09
	st := AnalyzeTrace(recs, 0.05)
	if st.Iterations != 3 {
		t.Fatalf("iterations %d", st.Iterations)
	}
	if st.ImbalancedFrac < 0.32 || st.ImbalancedFrac > 0.34 {
		t.Fatalf("imbalanced frac %g, want 1/3", st.ImbalancedFrac)
	}
	if st.LoadBottleneckFrac != 1.0/6.0 {
		t.Fatalf("load bottleneck frac %g, want 1/6", st.LoadBottleneckFrac)
	}
	if st.BottleneckShifts != 2 {
		t.Fatalf("bottleneck shifts %d, want 2", st.BottleneckShifts)
	}
	if st.MeanIdleFrac <= 0 {
		t.Fatal("mean idle frac not positive")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := AnalyzeTrace(nil, 0.05)
	if st.Iterations != 0 || st.ImbalancedFrac != 0 {
		t.Fatalf("empty analyze = %+v", st)
	}
}
