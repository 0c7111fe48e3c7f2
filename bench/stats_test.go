package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		p       float64
		want    float64
		wantErr string
	}{
		{name: "p99 of 1000 is the 990th", n: 1000, p: 99, want: 990},
		{name: "p99 of 1001 rounds the rank up", n: 1001, p: 99, want: 991},
		{name: "p50 of 21", n: 21, p: 50, want: 11},
		{name: "p99.9 of 10000", n: 10000, p: 99.9, want: 9990},
		{name: "exactly ten beyond is enough", n: 100, p: 90, want: 90},
		{name: "nine beyond is refused with the count", n: 900, p: 99, wantErr: "leaves 9 beyond"},
		{name: "p99 of 500 is refused", n: 500, p: 99, wantErr: "p99 of 500 samples leaves 5 beyond it, need 10"},
		{name: "empty is refused", n: 0, p: 50, wantErr: "p50 of 0 samples"},
		{name: "p0 is not a percentile", n: 100, p: 0, wantErr: "outside"},
		{name: "p100 is not a percentile", n: 100, p: 100, wantErr: "outside"},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case got != tc.want:
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestQuantileAndWindows(t *testing.T) {
	for _, tc := range []struct {
		q, want float64
	}{{0, 1}, {0.1, 1.9}, {0.5, 5.5}, {0.9, 9.1}, {1, 10}} {
		if got := quantile(seq(10), tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(1..10, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	var w windowed
	w.add(0, 1, 1, 1) // an empty window says nothing
	for i := 1; i <= 11; i++ {
		// Window i completes 100*i ops in a second on i CPU-seconds, with a
		// median latency of i.
		w.add(100*i, 1, float64(i), float64(i))
	}
	if w.n() != 11 {
		t.Fatalf("%d windows, want 11", w.n())
	}
	if got := w.rate(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("rate = %v, want the 90th percentile window's 1000", got)
	}
	if got := w.latency(); math.Abs(got-2) > 1e-9 {
		t.Errorf("latency = %v, want the 10th percentile window's 2", got)
	}
	if got := w.cpuPerOp(); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("cpuPerOp = %v, want 0.01", got)
	}
}

func TestMedianQuartilesSpread(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
	if got := median([]float64{1, 2, 4}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{1, 2, 4, 8}); got != 3 {
		t.Errorf("even median = %v", got)
	}
	// Reference values from Python: statistics.quantiles(v, n=4).
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7, 1, 4, 9, 2, 8, 3}, 2, 8},
	} {
		q1, q3, err := quartiles(tc.v)
		if err != nil || math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", tc.v, q1, q3, err, tc.q1, tc.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value must fail")
	}
	if got := spread([]float64{95, 100, 105}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("spread = %v, want 0.10", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread of nothing = %v", got)
	}
}

func TestRusage(t *testing.T) {
	before, err := cpuSeconds()
	if err != nil {
		t.Fatal(err)
	}
	x := 0.0
	for i := 0; i < 20_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	after, err := cpuSeconds()
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("CPU seconds did not advance over a busy loop (%v -> %v, sum %v)", before, after, x)
	}
	if rss, err := peakRSSMiB(); err != nil || rss < 1 {
		t.Errorf("peak RSS = %v MiB, %v", rss, err)
	}
}

func TestScrapeSums(t *testing.T) {
	reg := obs.NewRegistry()
	for _, shard := range []string{"0", "1"} {
		h := reg.Histogram("lobster_bench_test_seconds", "test", obs.LatencyBuckets(), "shard", shard)
		h.Observe(0.25)
		h.Observe(0.5)
	}
	reg.Counter("lobster_bench_test_total", "test").Add(7)
	m, err := scrape(reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Sum("lobster_bench_test_seconds_sum", nil); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("histogram sum over both shards = %v, want 1.5", got)
	}
	if got := m.Sum("lobster_bench_test_seconds_sum", map[string]string{"shard": "1"}); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("histogram sum of shard 1 = %v, want 0.75", got)
	}
	if got := m.Sum("lobster_bench_test_total", nil); got != 7 {
		t.Errorf("counter = %v, want 7", got)
	}
}

// TestTailShedsOneBadWindow: 2% of steps are slow everywhere, so every
// window's p99 is the slow step; one window in ten is a stall. Over the
// whole series the stall owns the p99; the windowed tail does not see it.
func TestTailShedsOneBadWindow(t *testing.T) {
	series := make([]float64, 11000)
	for i := range series {
		switch {
		case i/1100 == 4:
			series[i] = 9
		case i%50 == 0:
			series[i] = 3
		default:
			series[i] = 1
		}
	}
	whole, err := percentile(sortedCopy(series), 99)
	if err != nil || whole != 9 {
		t.Fatalf("whole-series p99 = %v, %v; want 9", whole, err)
	}
	if got, err := tail(series, 99); err != nil || got != 3 {
		t.Errorf("windowed p99 = %v, %v; want 3", got, err)
	}
	if _, err := tail(series[:900], 99); err == nil || !strings.Contains(err.Error(), "leaves 9 beyond") {
		t.Errorf("a series too short for one window must be refused, got %v", err)
	}
	if _, err := tail(series, 100); err == nil {
		t.Error("p100 must be refused")
	}
}

func TestTailFallsBack(t *testing.T) {
	res := &result{}
	if got := res.tail("x", seq(1000), 99); got != 990 || len(res.notes) != 0 {
		t.Errorf("tail of 1000 = %v with notes %v", got, res.notes)
	}
	// Too short for p99; p95 fits two windows of 250 (238 and 488), and
	// the better tenth lies a tenth of the way from the first.
	if got := res.tail("x", seq(500), 99); got != 263 || len(res.notes) != 1 || !strings.Contains(res.notes[0], "p95") {
		t.Errorf("tail of 500 = %v with notes %v, want the windowed p95 and a note saying so", got, res.notes)
	}
	res = &result{}
	if got := res.tail("x", seq(6), 99); got != 6 || len(res.notes) != 1 || !strings.Contains(res.notes[0], "maximum") {
		t.Errorf("tail of 6 = %v with notes %v, want the maximum and a note saying so", got, res.notes)
	}
}
