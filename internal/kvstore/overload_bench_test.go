package kvstore

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// Sustained-overload benchmark (DESIGN.md §11).
//
// The overload bench models a shard whose cost is service time, not
// CPU: a lag-only FaultConfig (the same injection mechanism the chaos
// harness uses) adds a per-request delay held across the
// admission slot, so capacity is maxInFlight/serviceTime regardless of
// core count — which makes the measurement deterministic on the 1-CPU
// CI box. A saturation phase (just enough closed-loop workers to keep
// every slot busy) establishes the ceiling; overload phases then
// oversubscribe it 10–100x with short-deadline clients and record how
// much goodput the admission gate + client backpressure window
// preserve, how many requests were shed and where, and the latency
// tail of the survivors.

// overloadScale sizes one run: tiny keeps verify.sh fast, full feeds
// BENCH_kv.json.
type overloadScale struct {
	serviceTime time.Duration
	maxInFlight int
	conns       int // client pool; > maxInFlight so the gate is the bottleneck
	window      int // per-conn backpressure window (see DESIGN.md §11)
	opDeadline  time.Duration
	phase       time.Duration
	factors     []int // oversubscription multipliers over maxInFlight workers
}

var (
	overloadTiny = overloadScale{
		serviceTime: time.Millisecond, maxInFlight: 2, conns: 4, window: 2,
		opDeadline: 25 * time.Millisecond, phase: 150 * time.Millisecond,
		factors: []int{10, 30, 100},
	}
	overloadFull = overloadScale{
		serviceTime: time.Millisecond, maxInFlight: 4, conns: 8, window: 2,
		opDeadline: 25 * time.Millisecond, phase: 2 * time.Second,
		factors: []int{10, 30, 100},
	}
)

// overloadPhase is one oversubscription level's outcome in
// BENCH_kv.json.
type overloadPhase struct {
	Oversubscription int     `json:"oversubscription"`
	Workers          int     `json:"workers"`
	GoodputOpsPerSec float64 `json:"goodput_ops_per_sec"`
	ShedRatePerSec   float64 `json:"shed_rate_per_sec"`
	OK               uint64  `json:"ok"`
	DeadlineExceeded uint64  `json:"deadline_exceeded"`
	RetryLater       uint64  `json:"retry_later"`
	ShedDeadline     uint64  `json:"shed_deadline"`
	ShedQuota        uint64  `json:"shed_quota"`
	ShedQueue        uint64  `json:"shed_queue"`
	P99Ms            float64 `json:"p99_ms"`
	P999Ms           float64 `json:"p999_ms"`
	HistP99Ms        float64 `json:"hist_p99_ms"`
	HistP999Ms       float64 `json:"hist_p999_ms"`
	HistSamples      uint64  `json:"hist_samples"`
	Goroutines       int     `json:"goroutines"`
}

type overloadReport struct {
	ServiceTimeMs       float64         `json:"service_time_ms"`
	MaxInFlight         int             `json:"max_inflight"`
	Conns               int             `json:"conns"`
	Window              int             `json:"window_per_conn"`
	OpDeadlineMs        float64         `json:"op_deadline_ms"`
	PhaseSeconds        float64         `json:"phase_seconds"`
	SaturationOpsPerSec float64         `json:"saturation_ops_per_sec"`
	GoodputRatioAt10x   float64         `json:"goodput_ratio_at_10x"`
	Phases              []overloadPhase `json:"phases"`
}

// benchEnv records the machine shape alongside the numbers so a reader
// can judge them (satellite: GOMAXPROCS, goroutine counts, histogram
// sample counts).
type benchEnv struct {
	GOMAXPROCS         int    `json:"gomaxprocs"`
	GoroutinesIdle     int    `json:"goroutines_idle"`
	GoroutinesOverload int    `json:"goroutines_overload"`
	HistogramSamples   uint64 `json:"histogram_samples"`
}

// pctMs returns the exact q-quantile of sorted nanosecond latencies in
// milliseconds. Exact order statistics, not histogram interpolation,
// which resolves only the ~1.96x steps of the exponential bucket ladder.
func pctMs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / 1e6
}

func sortedNs(lats [][]int64) []int64 {
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// runOverloadBench drives the saturation + oversubscription phases and
// returns the report plus the environment snapshot.
func runOverloadBench(t *testing.T, sc overloadScale) (overloadReport, benchEnv) {
	t.Helper()
	env := benchEnv{GOMAXPROCS: runtime.GOMAXPROCS(0), GoroutinesIdle: runtime.NumGoroutine()}
	s := testServerOptions(t, ServerOptions{
		Capacity: 64 << 20,
		Admission: AdmissionConfig{
			MaxInFlight: sc.maxInFlight,
			MaxQueue:    4 * sc.maxInFlight,
			MaxWait:     sc.opDeadline,
		},
	})
	cl, err := NewClientOptions(s.Addr(), ClientOptions{Conns: sc.conns, Window: sc.window})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const keys = 256
	val := make([]byte, 64)
	for i := 0; i < keys; i++ {
		if err := cl.Put(bg, benchKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	// After preload: service time models I/O, not setup. Uses the shared
	// FaultConfig mechanism (the chaos harness's SetFault) as lag-only.
	s.SetFault(FaultConfig{Lag: sc.serviceTime})

	rep := overloadReport{
		ServiceTimeMs: float64(sc.serviceTime) / 1e6,
		MaxInFlight:   sc.maxInFlight,
		Conns:         sc.conns,
		Window:        sc.window,
		OpDeadlineMs:  float64(sc.opDeadline) / 1e6,
		PhaseSeconds:  sc.phase.Seconds(),
	}

	// Saturation: exactly maxInFlight closed-loop workers, no deadline
	// pressure — the ceiling the overload phases are judged against.
	var satOps atomic.Uint64
	runPhase(sc.phase, sc.maxInFlight, func(w, i int) {
		_, _, err := cl.Get(bg, benchKey((w*31+i)%keys))
		if err == nil {
			satOps.Add(1)
		}
	})
	rep.SaturationOpsPerSec = float64(satOps.Load()) / sc.phase.Seconds()

	reg := obs.NewRegistry()
	hist := reg.Histogram("lobster_bench_overload_seconds",
		"Successful-op latency under sustained overload.", obs.LatencyBuckets())
	for _, factor := range sc.factors {
		workers := factor * sc.maxInFlight
		before := s.Stats()
		var ok, dle, retry atomic.Uint64
		lats := make([][]int64, workers)
		var midGoroutines atomic.Int64
		runPhase(sc.phase, workers, func(w, i int) {
			if w == 0 && i == 8 {
				midGoroutines.Store(int64(runtime.NumGoroutine()))
			}
			ctx, cancel := context.WithTimeout(context.Background(), sc.opDeadline)
			start := time.Now()
			_, _, err := cl.Get(ctx, benchKey((w*31+i)%keys))
			cancel()
			switch {
			case err == nil:
				ok.Add(1)
				ns := time.Since(start).Nanoseconds()
				lats[w] = append(lats[w], ns)
				hist.Observe(float64(ns) / 1e9)
			case errors.Is(err, context.DeadlineExceeded):
				dle.Add(1)
			case errors.Is(err, ErrRetryLater):
				retry.Add(1)
			}
		})
		after := s.Stats()
		all := sortedNs(lats)
		ph := overloadPhase{
			Oversubscription: factor,
			Workers:          workers,
			GoodputOpsPerSec: float64(ok.Load()) / sc.phase.Seconds(),
			OK:               ok.Load(),
			DeadlineExceeded: dle.Load(),
			RetryLater:       retry.Load(),
			ShedDeadline:     after.ShedDeadline - before.ShedDeadline,
			ShedQuota:        after.ShedQuota - before.ShedQuota,
			ShedQueue:        after.ShedQueue - before.ShedQueue,
			P99Ms:            pctMs(all, 0.99),
			P999Ms:           pctMs(all, 0.999),
			HistP99Ms:        hist.Quantile(0.99) * 1e3,
			HistP999Ms:       hist.Quantile(0.999) * 1e3,
			HistSamples:      hist.Count(),
			Goroutines:       int(midGoroutines.Load()),
		}
		shed := ph.ShedDeadline + ph.ShedQuota + ph.ShedQueue
		ph.ShedRatePerSec = float64(shed) / sc.phase.Seconds()
		rep.Phases = append(rep.Phases, ph)
		if env.GoroutinesOverload < ph.Goroutines {
			env.GoroutinesOverload = ph.Goroutines
		}
		t.Logf("overload %dx: goodput %.0f/s (sat %.0f/s), shed %.0f/s (dl=%d q=%d), "+
			"client ok=%d dle=%d retry=%d, p99 %.2fms p999 %.2fms",
			factor, ph.GoodputOpsPerSec, rep.SaturationOpsPerSec, ph.ShedRatePerSec,
			ph.ShedDeadline, ph.ShedQueue, ph.OK, ph.DeadlineExceeded, ph.RetryLater,
			ph.P99Ms, ph.P999Ms)
	}
	env.HistogramSamples = hist.Count()
	if len(rep.Phases) > 0 && rep.SaturationOpsPerSec > 0 {
		rep.GoodputRatioAt10x = rep.Phases[0].GoodputOpsPerSec / rep.SaturationOpsPerSec
	}
	s.SetFault(FaultConfig{})
	return rep, env
}

// runPhase runs `workers` closed-loop goroutines calling op until the
// phase duration elapses.
func runPhase(d time.Duration, workers int, op func(w, i int)) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op(w, i)
			}
		}()
	}
	wg.Wait()
}

// TestOverloadGoodput is the tier-1 acceptance check in tiny form: at
// 10x oversubscription the gate must preserve at least 80% of
// saturation goodput. The full-size measurement lands in BENCH_kv.json
// via LOBSTER_BENCH_KV=1.
func TestOverloadGoodput(t *testing.T) {
	rep, _ := runOverloadBench(t, overloadTiny)
	if rep.SaturationOpsPerSec == 0 {
		t.Fatal("saturation phase recorded zero throughput")
	}
	if rep.GoodputRatioAt10x < 0.8 {
		t.Fatalf("goodput at 10x = %.0f%% of saturation, want >= 80%%",
			100*rep.GoodputRatioAt10x)
	}
}
