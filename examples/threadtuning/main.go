// Threadtuning: run the REAL concurrent runtime (goroutine worker pools,
// throttled storage, channel-based distribution manager) and watch
// Lobster's flexible thread manager at work: every decoded tensor is
// verified end to end, and the final thread assignment shows preprocessing
// throttled to its peak-throughput size with the remaining threads spread
// over the per-GPU loading queues.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"

	"repro/internal/experiments"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/runtime"
)

func main() {
	monAddr := flag.String("monitor", "127.0.0.1:0",
		"address for /metrics, /trace.json, /healthz and pprof")
	flag.Parse()

	fmt.Println("online runtime, 2 nodes x 8 GPUs, Lobster strategy:")
	fmt.Println()
	cfg, err := experiments.NewConfig(experiments.Workload{
		Dataset:  "imagenet-1k",
		Scale:    "tiny",
		Model:    "resnet50",
		Nodes:    2,
		Epochs:   2,
		Strategy: "lobster",
	})
	if err != nil {
		log.Fatal(err)
	}
	// Expose live progress over HTTP while the run executes — the
	// observability surface a production deployment would scrape: a
	// Prometheus registry of per-stage instruments, a span ring for
	// Perfetto traces, and the progress snapshot behind /healthz.
	mon, err := monitor.Serve(*monAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()
	reg := obs.NewRegistry()
	trace := obs.NewTraceRing(8192)
	mon.SetRegistry(reg)
	mon.SetTrace(trace)
	fmt.Printf("live metrics at http://%s/metrics (trace at /trace.json)\n\n", mon.Addr())

	stats, err := runtime.Run(runtime.Options{
		Topology:   cfg.Topology,
		Dataset:    cfg.Dataset,
		Model:      cfg.Model,
		Epochs:     cfg.Epochs,
		Seed:       cfg.Seed,
		Strategy:   cfg.Strategy,
		TimeScale:  0.002, // 500x faster than modeled time
		Obs:        reg,
		Trace:      trace,
		OnProgress: func(p runtime.Progress) { mon.Update(p) },
	})
	if err != nil {
		log.Fatal(err)
	}
	// One last scrape of the instruments, as a monitoring client would
	// see them.
	if resp, err := http.Get("http://" + mon.Addr() + "/metrics"); err == nil {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		_ = resp.Body.Close()
		fmt.Printf("final /metrics scrape (truncated):\n%s...\n\n", body)
	}
	fmt.Printf("trace ring holds %d spans (stall/train per rank, load, preproc, prefetch windows)\n\n", trace.Len())
	fmt.Printf("iterations: %d   wall time: %v\n", stats.Iterations, stats.WallTime)
	fmt.Printf("samples loaded: %d, all verified: %v\n",
		stats.SamplesLoaded, stats.SamplesVerified == stats.SamplesLoaded)
	fmt.Printf("cache hit ratio: %.1f%%   remote hits: %d   PFS reads: %d   prefetched: %d\n",
		stats.HitRatio()*100, stats.RemoteHits, stats.PFSReads, stats.Prefetched)
	fmt.Println()
	for n := range stats.FinalPreprocThreads {
		fmt.Printf("node %d final threads: preprocessing=%d, loading per GPU=%v\n",
			n, stats.FinalPreprocThreads[n], stats.FinalLoadThreads[n])
	}
	fmt.Println()
	fmt.Println("The controller re-runs Algorithm 1 every iteration: preprocessing")
	fmt.Println("is held near its peak-throughput thread count (Observation 3) and")
	fmt.Println("loading threads follow each GPU queue's predicted demand.")
}
