package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"syscall"

	"repro/internal/doctor"
	"repro/internal/obs"
)

// tailMargin is how many samples must lie beyond a reported percentile:
// with fewer, the "percentile" is a handful of outliers and moves with
// every run (choosing-metrics §1).
const tailMargin = 10

// percentile returns the exact p-th percentile (0 < p < 100) of sorted
// by nearest rank: the smallest sample with at least p% of the samples
// at or below it. It refuses a percentile that leaves fewer than
// tailMargin samples beyond it, naming the count so the caller can print
// it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	// The epsilon keeps p/100*n from landing a hair above a whole rank
	// (99.9/100*10000 is 9990.000000000002 in floating point).
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if beyond := n - rank; beyond < tailMargin {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, beyond, tailMargin)
	}
	return sorted[rank-1], nil
}

// tail is the p-th percentile that the better tenth of a series' windows
// show. The series, in time order, is cut into as many windows of
// consecutive samples as it has room for, each just long enough for the
// exact percentile to keep its tailMargin (with a tenth to spare): 1100
// samples for a p99, a quarter of a second of kv Gets. A stall that is
// the sandbox's and not the program's — the hypervisor descheduling a
// vCPU for milliseconds, a neighbour taking the memory bus for seconds —
// lands in some of the windows, where over the whole run it decides the
// percentile: ten 20 s runs of one binary spread by 40% (interquartile)
// on the whole-run p99 of step time, by 2–5% on this. Short windows
// matter: the slow spells last seconds, and a window has to fit between
// two of them to be clean (the p99 of kv Gets spread by 8–10% over ten
// windows a run, by 5–7% over a hundred and seventy). A series too
// short for one window is refused.
func tail(inOrder []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	need := int(math.Ceil(1.1 * tailMargin / (1 - p/100)))
	k := len(inOrder) / need
	if k < 1 {
		k = 1
	}
	size := len(inOrder) / k
	vals := make([]float64, k)
	for i := range vals {
		v, err := percentile(sortedCopy(inOrder[i*size:(i+1)*size]), p)
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	sort.Float64s(vals)
	return quantile(vals, betterTenth), nil
}

// median returns the middle sample of sorted (mean of the two middle
// ones for an even count); 0 for an empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quantile returns the q-th quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// windowed is a steady state cut into short windows, each with the ops
// it completed, how long it lasted, the CPU the process spent in it and
// the median latency of its ops.
//
// The CI sandbox's vCPUs switch, independently and for seconds at a
// time, between two speeds about 28% apart (a neighbour on the sibling
// hyperthread), so a run's mean is mostly a reading of how much slow
// time it happened to catch: ten 20 s runs of one binary spread by 10%
// (interquartile) on the mean. Interference only ever slows a window
// down, so the better tenth of the windows is the closest a run gets to
// the program's own speed, and it halves that spread. This is the
// min-of-N of ROADMAP aim 1 taken inside a run, with the decile in place
// of the extreme so that one fluke window does not set the result.
type windowed struct {
	rates, cpuPerOps, latencies []float64
}

const betterTenth = 0.10

func (w *windowed) add(ops int, seconds, cpuS, medianLatency float64) {
	if ops == 0 || seconds <= 0 {
		return
	}
	w.rates = append(w.rates, float64(ops)/seconds)
	w.cpuPerOps = append(w.cpuPerOps, cpuS/float64(ops))
	w.latencies = append(w.latencies, medianLatency)
}

// merge appends the windows of a later stretch.
func (w *windowed) merge(o windowed) {
	w.rates = append(w.rates, o.rates...)
	w.cpuPerOps = append(w.cpuPerOps, o.cpuPerOps...)
	w.latencies = append(w.latencies, o.latencies...)
}

func (w *windowed) n() int { return len(w.rates) }

// rate is the ops per second the better tenth of windows reach.
func (w *windowed) rate() float64 { return quantile(sortedCopy(w.rates), 1-betterTenth) }

// cpuPerOp is the CPU seconds per op the better tenth of windows need.
func (w *windowed) cpuPerOp() float64 { return quantile(sortedCopy(w.cpuPerOps), betterTenth) }

// latency is the median latency the better tenth of windows show.
func (w *windowed) latency() float64 { return quantile(sortedCopy(w.latencies), betterTenth) }

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first and third quartile of v by the exclusive
// method — the same cut points Python's statistics.quantiles(v, n=4)
// gives, which is what the acceptance check of BENCHMARK.json uses.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64, err error) {
	n := len(v)
	if n < 2 {
		return 0, 0, fmt.Errorf("quartiles of %d values", n)
	}
	s := sortedCopy(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), nil
}

// spread is (max-min)/median of v: the run-to-run noise figure -repeat
// prints and holds against each metric's bound.
func spread(v []float64) float64 {
	s := sortedCopy(v)
	m := median(s)
	if len(s) == 0 || m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// peakRSSMiB is this process's resident-set high-water mark. Linux
// reports ru_maxrss in KiB.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// scrape renders reg in the Prometheus text format and parses it back
// with the doctor's parser, so the bench reads instrumented sums through
// the same path lobster-doctor does.
func scrape(reg *obs.Registry) (*doctor.Metrics, error) {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil, fmt.Errorf("render metrics: %w", err)
	}
	return doctor.ParseMetrics(&buf)
}
