// Chaos experiment suite: the recovery scenarios behind `make
// bench-chaos` and BENCH_chaos.json. Each scenario runs the live
// runtime (internal/runtime) under a seeded chaos schedule
// (internal/chaos) and judges recovery against explicit criteria.
//
// Criteria come in two tiers. Structural criteria — the run completed,
// every sample was verified, every injected fault was reverted, the
// degraded window matched the schedule, failovers/retries were observed
// where the scenario guarantees them — are deterministic for a given
// seed and are what CI asserts. Wall-clock criteria — throughput
// degradation during the fault window, recovery time after it — are
// measured on every run and recorded in the results, but only the full
// bench run (a quiet machine) gates on them.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/obs"
	"repro/internal/runtime"
	"repro/internal/tier"
)

// chaosTraceDirEnv names a directory where a failed scenario dumps its
// trace ring as Chrome trace JSON — CI sets it and uploads the dumps as
// artifacts, so a red chaos gate ships the evidence (feed the file to
// lobster-doctor or Perfetto). Empty disables tracing entirely.
const chaosTraceDirEnv = "LOBSTER_CHAOS_TRACE_DIR"

// dumpChaosTrace writes a failed scenario's trace; best-effort (a
// failed dump must not mask the scenario verdict) but logged into the
// result either way.
func dumpChaosTrace(dir, scenario string, ring *obs.TraceRing, res *ChaosResult) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.EventLog = append(res.EventLog, "trace dump failed: "+err.Error())
		return
	}
	path := filepath.Join(dir, "chaos-"+scenario+"-trace.json")
	f, err := os.Create(path)
	if err != nil {
		res.EventLog = append(res.EventLog, "trace dump failed: "+err.Error())
		return
	}
	defer f.Close()
	if err := ring.WriteJSON(f); err != nil {
		res.EventLog = append(res.EventLog, "trace dump failed: "+err.Error())
		return
	}
	res.EventLog = append(res.EventLog, "trace dumped to "+path)
}

// ChaosParams configure a scenario-suite run.
type ChaosParams struct {
	// Samples sizes the dataset (default 256; the full bench uses 512).
	Samples int
	// Epochs is the training length (default 4).
	Epochs int
	// Seed seeds the dataset, the run, and every chaos schedule.
	Seed uint64
	// Strict additionally gates on the wall-clock criteria (degradation
	// observed, recovery within bound) — full-bench runs only; CI boxes
	// are too noisy for latency assertions.
	Strict bool
}

func (p ChaosParams) withDefaults() ChaosParams {
	if p.Samples <= 0 {
		p.Samples = 256
	}
	if p.Epochs <= 0 {
		p.Epochs = 4
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	return p
}

// ChaosResult is one scenario's outcome, serialized into
// BENCH_chaos.json. EventLog, the criteria lines, and Passed are
// deterministic for a given seed; the counters and the wall-clock
// measurements (degradation, recovery) vary run to run and are recorded
// for the report only.
type ChaosResult struct {
	Name            string   `json:"name"`
	Passed          bool     `json:"passed"`
	Criteria        []string `json:"criteria"`
	EventLog        []string `json:"event_log"`
	Iterations      int      `json:"iterations"`
	SamplesVerified uint64   `json:"samples_verified"`
	SamplesExpected uint64   `json:"samples_expected"`
	Failovers       uint64   `json:"failovers"`
	PFSRetries      uint64   `json:"pfs_retries"`
	RemoteHits      uint64   `json:"remote_hits"`
	Injected        int      `json:"injected"`
	Reverted        int      `json:"reverted"`
	DegradedIters   int      `json:"degraded_iters"`
	// RecoveryIters is how many iterations after the last revert the
	// per-iteration time needed to return to within 1.5x the healthy
	// baseline (0 = the first post-fault iteration was already healthy).
	RecoveryIters int `json:"recovery_iters"`
	// DegradationPct is the mean per-iteration slowdown inside the fault
	// window versus the healthy baseline, in percent.
	DegradationPct float64 `json:"throughput_degradation_pct"`
}

// chaosScenario is one recovery scenario's definition. The schedule
// builder receives the run's total iteration count so windows scale
// with Params.
type chaosScenario struct {
	name string
	// build appends the scenario's events and returns the fault window
	// [start, end) used for degradation/recovery measurement.
	build func(s *chaos.Schedule, totalIters int) (faultStart, faultEnd int)
	// wantFailovers / wantRetries add the respective structural criteria.
	wantFailovers bool
	wantRetries   bool
}

// chaosScenarios returns the suite in report order.
func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{
			// One peer serves slowly and drops half its fetches for a
			// quarter of the run; the others must absorb the window.
			name: "straggler",
			build: func(s *chaos.Schedule, total int) (int, int) {
				start, end := total/4, total/2
				s.Add(chaos.Event{
					Kind: chaos.KindStraggler, Target: 1, Start: start, End: end,
					Fault: chaos.Fault{Lag: 2 * time.Millisecond, Jitter: time.Millisecond, ErrRate: 0.5},
				})
				return start, end
			},
		},
		{
			// The PFS browns out: every read pays extra latency and half
			// fail transiently; the retry loop must carry the window.
			name: "brownout",
			build: func(s *chaos.Schedule, total int) (int, int) {
				start, end := total/4, total/2
				s.Brownout(start, end, time.Millisecond, 500*time.Microsecond, 0.5)
				return start, end
			},
			wantRetries: true,
		},
		{
			// Node loss mid-epoch: first every peer goes dark (promised
			// reads fail, guaranteeing failovers), then node 1's cache is
			// lost outright and revived later. Training must finish with
			// every sample verified on a repaired shard map.
			name: "nodeloss",
			build: func(s *chaos.Schedule, total int) (int, int) {
				darkEnd, crashEnd := total/2, 3*total/4
				for node := 0; node < 2; node++ {
					s.Add(chaos.Event{
						Kind: chaos.KindStraggler, Target: node, Start: 2, End: darkEnd,
						Fault: chaos.Fault{ErrRate: 1},
					})
				}
				s.CacheCrash(1, darkEnd, crashEnd)
				// Measure from total/4 so cache warm-up (which overlaps
				// the dark window's start) does not pollute the
				// degradation number.
				return total / 4, crashEnd
			},
			wantFailovers: true,
		},
	}
}

// chaosProbe records the cumulative elapsed time at every iteration
// boundary via Options.OnProgress.
type chaosProbe struct {
	mu      sync.Mutex
	elapsed []float64
}

func (p *chaosProbe) onProgress(pr runtime.Progress) {
	p.mu.Lock()
	p.elapsed = append(p.elapsed, pr.ElapsedSec)
	p.mu.Unlock()
}

// iterTimes differences the cumulative elapsed samples into
// per-iteration durations.
func (p *chaosProbe) iterTimes() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]float64, len(p.elapsed))
	prev := 0.0
	for i, e := range p.elapsed {
		out[i] = e - prev
		prev = e
	}
	return out
}

// median returns the middle value (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// mean returns the average (0 for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// expectedDegraded replays the schedule's windows over the run's
// iteration boundaries (0..totalIters inclusive, matching the
// controller's ticks) and counts boundaries with at least one active
// event — the deterministic value Controller.DegradedIters must report.
func expectedDegraded(s *chaos.Schedule, totalIters int) int {
	n := 0
	for h := 0; h <= totalIters; h++ {
		for _, e := range s.Events {
			if h >= e.Start && (e.End <= 0 || h < e.End) {
				n++
				break
			}
		}
	}
	return n
}

// chaosOptions builds the live-runtime configuration every scenario
// shares: 2 nodes x 2 GPUs, batch 8, Lobster dynamic strategy.
func chaosOptions(p ChaosParams) (runtime.Options, error) {
	ds, err := dataset.Generate(dataset.Spec{
		Name: "chaos", NumSamples: p.Samples, MeanSize: 8 << 10, SigmaLog: 0.3,
		MinSize: 1 << 10, Classes: 4, Seed: p.Seed,
	})
	if err != nil {
		return runtime.Options{}, err
	}
	top := cluster.Topology{
		Nodes:       2,
		GPUsPerNode: 2,
		CPUThreads:  8,
		CacheBytes:  ds.TotalBytes() / 3,
		NUMADomains: 2,
		Hierarchy:   tier.ThetaGPULike(),
	}
	model := cluster.DNNModel{Name: "toy", IterTime: 0.004, BatchSize: 8, TargetAccuracy: 0.7, ConvergeEpochs: 10}
	return runtime.Options{
		Topology:  top,
		Dataset:   ds,
		Model:     model,
		Epochs:    p.Epochs,
		Seed:      p.Seed,
		Strategy:  loader.Lobster(),
		TimeScale: 0.02,
	}, nil
}

// ChaosScenarios runs the full recovery suite and returns one result
// per scenario, in order. An error means a scenario could not run at
// all; a failed recovery is reported through ChaosResult.Passed.
func ChaosScenarios(p ChaosParams) ([]ChaosResult, error) {
	p = p.withDefaults()
	var results []ChaosResult
	for _, sc := range chaosScenarios() {
		r, err := runChaosScenario(sc, p)
		if err != nil {
			return nil, fmt.Errorf("chaos scenario %s: %w", sc.name, err)
		}
		results = append(results, r)
	}
	return results, nil
}

func runChaosScenario(sc chaosScenario, p ChaosParams) (ChaosResult, error) {
	opts, err := chaosOptions(p)
	if err != nil {
		return ChaosResult{}, err
	}
	ranks := opts.Topology.Nodes * opts.Topology.GPUsPerNode
	totalIters := p.Samples / (ranks * opts.Model.BatchSize) * p.Epochs
	sched := chaos.NewSchedule(p.Seed)
	faultStart, faultEnd := sc.build(sched, totalIters)
	ctl, err := chaos.NewController(sched)
	if err != nil {
		return ChaosResult{}, err
	}
	probe := &chaosProbe{}
	opts.Chaos = ctl
	opts.OnProgress = probe.onProgress
	var ring *obs.TraceRing
	traceDir := os.Getenv(chaosTraceDirEnv)
	if traceDir != "" {
		ring = obs.NewTraceRing(1 << 16)
		ring.SetProcess(0, "chaos/"+sc.name)
		opts.Trace = ring
	}

	res := ChaosResult{Name: sc.name}
	stats, err := runtime.Run(opts)
	if err != nil {
		// A run error is itself a failed recovery, not a harness error.
		res.Criteria = append(res.Criteria, fmt.Sprintf("FAIL: run aborted: %v", err))
		if ring != nil {
			dumpChaosTrace(traceDir, sc.name, ring, &res)
		}
		return res, nil
	}

	res.Iterations = stats.Iterations
	res.SamplesVerified = stats.SamplesVerified
	res.SamplesExpected = uint64(stats.Iterations) * uint64(ranks*opts.Model.BatchSize)
	res.Failovers = stats.Failovers
	res.PFSRetries = stats.PFSRetries
	res.RemoteHits = stats.RemoteHits
	res.Injected, res.Reverted = ctl.Counts()
	res.DegradedIters = ctl.DegradedIters()
	res.EventLog = ctl.EventLog()

	// Wall-clock measurements. The healthy baseline is the post-fault
	// steady state (caches warm, every fault reverted) rather than the
	// pre-fault iterations, which are polluted by cold-cache warm-up.
	times := probe.iterTimes()
	if faultEnd > len(times) {
		faultEnd = len(times)
	}
	healthy := median(times[faultEnd:])
	degraded := mean(times[min(faultStart, len(times)):faultEnd])
	if healthy > 0 {
		res.DegradationPct = (degraded/healthy - 1) * 100
	}
	res.RecoveryIters = len(times) - faultEnd // pessimistic: never recovered
	for i := faultEnd; i < len(times); i++ {
		if times[i] <= 1.5*healthy {
			res.RecoveryIters = i - faultEnd
			break
		}
	}

	// Structural criteria (deterministic for a given seed).
	check := func(ok bool, format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if ok {
			res.Criteria = append(res.Criteria, "ok: "+line)
		} else {
			res.Criteria = append(res.Criteria, "FAIL: "+line)
		}
	}
	check(stats.Iterations == totalIters, "completed all %d iterations", totalIters)
	check(res.SamplesVerified == res.SamplesExpected,
		"every scheduled sample verified (%d expected)", res.SamplesExpected)
	check(res.Injected == len(sched.Events) && res.Reverted == res.Injected,
		"all %d faults injected and reverted", len(sched.Events))
	wantDegraded := expectedDegraded(sched, totalIters)
	check(res.DegradedIters == wantDegraded,
		"degraded window matches schedule (%d boundaries)", wantDegraded)
	if sc.wantFailovers {
		check(res.Failovers > 0, "peer failovers to the PFS observed")
	}
	if sc.wantRetries {
		check(res.PFSRetries > 0, "transient PFS failures retried")
	}

	// Wall-clock criteria (Strict / full-bench only; always recorded).
	if p.Strict {
		check(res.DegradationPct > 0, "fault window measurably degraded throughput")
		bound := 6
		if sc.wantFailovers {
			bound = 12 // cache refill after a crash takes longer
		}
		check(res.RecoveryIters <= bound,
			"throughput recovered within %d iterations of the last revert", bound)
	}

	res.Passed = true
	for _, c := range res.Criteria {
		if len(c) >= 4 && c[:4] == "FAIL" {
			res.Passed = false
		}
	}
	if ring != nil && !res.Passed {
		dumpChaosTrace(traceDir, sc.name, ring, &res)
	}
	return res, nil
}

// ExtChaos is the chaos-recovery extension experiment: the paper
// evaluates Lobster on healthy clusters; this extension verifies the
// reproduction's I/O stack survives the faults a real cluster throws —
// stragglers, PFS brownouts, and peer-cache loss mid-epoch — with
// bounded degradation and no lost samples.
func ExtChaos() Experiment {
	return Experiment{
		ID:    "ext-chaos",
		Title: "Extension: recovery under stragglers, brownouts, and node loss",
		Paper: "not in the paper (extension); anchors: Section 2's distributed-cache architecture",
		Run: func(p Params) (*Report, error) {
			p = p.withDefaults()
			rep := &Report{ID: "ext-chaos", Title: "Chaos recovery (extension)"}
			results, err := ChaosScenarios(ChaosParams{Seed: p.Seed})
			if err != nil {
				return nil, err
			}
			passed := 0
			rep.Printf("%-10s %-6s %10s %10s %12s %14s", "scenario", "pass", "failovers", "retries", "degraded_it", "degradation%")
			for _, r := range results {
				verdict := "FAIL"
				if r.Passed {
					verdict = "pass"
					passed++
				}
				rep.Printf("%-10s %-6s %10d %10d %12d %14.1f",
					r.Name, verdict, r.Failovers, r.PFSRetries, r.DegradedIters, r.DegradationPct)
				v := 0.0
				if r.Passed {
					v = 1
				}
				rep.Set(r.Name+"_passed", v)
				rep.Set(r.Name+"_degraded_iters", float64(r.DegradedIters))
			}
			rep.Set("scenarios_passed", float64(passed))
			return rep, nil
		},
	}
}
