// Command lobster-kv runs one shard of the key-value cache tier as a
// standalone process, so a cluster can be deployed across machines (the
// "alternatives to distributed caching like for example KV-stores" of the
// paper's Section 2). The shard speaks the pipelined, batched kvstore
// wire protocol (DESIGN.md §8).
//
// Overload control (DESIGN.md §11) is off by default; arm it with the
// -max-inflight / -max-queue / -quota-rate / -quota-burst flags to make
// the shard shed excess load cheaply (statusRetryLater) instead of
// queueing without bound.
//
// Example:
//
//	lobster-kv -addr 127.0.0.1:7001 -capacity 512MiB -stripes 16 -monitor 127.0.0.1:7101 \
//	  -max-inflight 256 -quota-rate 50000
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/kvstore"
	"repro/internal/monitor"
	"repro/internal/obs"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7001", "listen address")
		capacity = flag.String("capacity", "256MiB", "shard capacity (bytes; supports KiB/MiB/GiB suffixes)")
		statsSec = flag.Int("stats-interval", 30, "seconds between stats log lines (0 = silent)")
		stripes  = flag.Int("stripes", 0, "LRU lock stripes (0 = auto-size from capacity)")
		monAddr  = flag.String("monitor", "", "serve /metrics, /healthz, /trace.json and pprof on this address (empty = off)")

		maxInflight = flag.Int("max-inflight", 0, "max requests executing concurrently (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "max requests waiting for an in-flight slot (0 = 4x max-inflight)")
		maxWait     = flag.Duration("max-wait", 0, "max slot wait for deadline-less requests (0 = 50ms)")
		quotaRate   = flag.Float64("quota-rate", 0, "per-connection sustained requests/sec (0 = no quota)")
		quotaBurst  = flag.Float64("quota-burst", 0, "per-connection token-bucket depth (0 = quota-rate)")
	)
	flag.Parse()

	bytes, err := parseBytes(*capacity)
	if err != nil {
		fatal(err)
	}
	// With a monitor, the shard records server-side spans for requests
	// carrying a trace context. The ring's process identity is this shard's
	// pid, so its /trace.json merges with client-side dumps in one
	// timeline (lobster-doctor correlates them on rank/iter).
	var ring *obs.TraceRing
	if *monAddr != "" {
		ring = obs.NewTraceRing(1 << 16)
		ring.SetProcess(os.Getpid(), "lobster-kv "+*addr)
	}
	srv, err := kvstore.NewServerOptions(*addr, kvstore.ServerOptions{
		Capacity: bytes,
		Stripes:  *stripes,
		Admission: kvstore.AdmissionConfig{
			MaxInFlight: *maxInflight,
			MaxQueue:    *maxQueue,
			MaxWait:     *maxWait,
			QuotaRate:   *quotaRate,
			QuotaBurst:  *quotaBurst,
		},
		Trace: ring,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("lobster-kv shard listening on %s (capacity %s, %d stripes)\n",
		srv.Addr(), *capacity, srv.Stripes())

	var mon *monitor.Server
	if *monAddr != "" {
		reg := obs.NewRegistry()
		kvstore.InstrumentServer(reg, srv)
		mon, err = monitor.Serve(*monAddr)
		if err != nil {
			fatal(err)
		}
		mon.SetRegistry(reg)
		mon.SetTrace(ring)
		mon.Update(srv.Stats())
		fmt.Printf("monitor at http://%s/metrics\n", mon.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	// The snapshot refresh doubles as the /healthz heartbeat, so it runs
	// even when stats logging is silenced.
	heartbeat := time.NewTicker(heartbeatEvery(*statsSec))
	defer heartbeat.Stop()
	if mon != nil {
		mon.SetMaxStale(3 * heartbeatEvery(*statsSec))
	}
	var lastLog time.Time
	for {
		select {
		case now := <-heartbeat.C:
			st := srv.Stats()
			if mon != nil {
				mon.Update(st)
			}
			if *statsSec > 0 && now.Sub(lastLog) >= time.Duration(*statsSec)*time.Second {
				lastLog = now
				fmt.Printf("items=%d used=%.1fMB hits=%d misses=%d evictions=%d toolarge=%d shed=%d/%d/%d\n",
					st.Items, float64(st.UsedBytes)/1e6, st.Hits, st.Misses, st.Evictions, st.TooLarge,
					st.ShedDeadline, st.ShedQuota, st.ShedQueue)
			}
		case <-stop:
			fmt.Println("shutting down")
			if mon != nil {
				_ = mon.Close() // best-effort; the shard close below is what matters
			}
			if err := srv.Close(); err != nil {
				fatal(err)
			}
			return
		}
	}
}

// heartbeatEvery picks the snapshot refresh period: frequent enough for
// a useful /healthz staleness bound, and aligned with the logging
// cadence when one is configured.
func heartbeatEvery(statsSec int) time.Duration {
	if statsSec > 0 && statsSec < 5 {
		return time.Duration(statsSec) * time.Second
	}
	return 5 * time.Second
}

// parseBytes understands plain integers and KiB/MiB/GiB suffixes.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad capacity %q: %w", s, err)
	}
	if v <= 0 {
		return 0, fmt.Errorf("capacity must be positive, got %d", v)
	}
	return v * mult, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lobster-kv:", err)
	os.Exit(1)
}
