package pipeline

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func sampleRun(strategy string, total float64) *Metrics {
	r := &Metrics{
		Strategy: strategy, Model: "resnet50", Dataset: "d",
		Nodes: 1, GPUs: 8, Epochs: 2,
		TotalTime:      total,
		TrainTimeTotal: total * 8 * 0.5, // 50% utilization
		Iterations:     100,
		CacheHits:      300,
		CacheMisses:    700,
		RemoteHits:     200,
		PFSFetches:     500,
		BatchTimes:     stats.NewSummary(),
	}
	for i := 0; i < 100; i++ {
		r.BatchTimes.Add(total / 100)
	}
	return r
}

func TestDerivedMetrics(t *testing.T) {
	r := sampleRun("x", 10)
	if got := r.HitRatio(); got != 0.3 {
		t.Fatalf("HitRatio = %g, want 0.3", got)
	}
	if got := r.GPUUtilization(); got != 0.5 {
		t.Fatalf("GPUUtilization = %g, want 0.5", got)
	}
	r.ImbalancedIterations = 25
	if got := r.ImbalanceFraction(); got != 0.25 {
		t.Fatalf("ImbalanceFraction = %g, want 0.25", got)
	}
	if got := r.Throughput(256); got != 2560 {
		t.Fatalf("Throughput = %g, want 2560", got)
	}
}

func TestZeroSafety(t *testing.T) {
	r := &Metrics{BatchTimes: stats.NewSummary()}
	if r.HitRatio() != 0 || r.GPUUtilization() != 0 || r.ImbalanceFraction() != 0 ||
		r.Throughput(1) != 0 || r.Speedup(r) != 0 {
		t.Fatal("zero-value run not safe")
	}
}

func TestSpeedup(t *testing.T) {
	base := sampleRun("pytorch", 20)
	fast := sampleRun("lobster", 10)
	if got := fast.Speedup(base); got != 2 {
		t.Fatalf("Speedup = %g, want 2", got)
	}
	if got := base.Speedup(base); got != 1 {
		t.Fatalf("self speedup = %g, want 1", got)
	}
}

func TestTable(t *testing.T) {
	base := sampleRun("pytorch", 20)
	fast := sampleRun("lobster", 10)
	out := Table([]*Metrics{base, fast})
	if !strings.Contains(out, "pytorch") || !strings.Contains(out, "lobster") {
		t.Fatalf("table missing strategies:\n%s", out)
	}
	if !strings.Contains(out, "2.00") {
		t.Fatalf("table missing speedup:\n%s", out)
	}
	if Table(nil) != "" {
		t.Fatal("empty table should be empty string")
	}
}

func TestString(t *testing.T) {
	s := sampleRun("lobster", 10).String()
	if !strings.Contains(s, "lobster") || !strings.Contains(s, "resnet50") {
		t.Fatalf("String() = %q", s)
	}
}
