package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/doctor"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// TestDoctorEndToEnd exercises the doctor exactly as an operator would
// use it: an instrumented run publishes its registry and span ring
// through a live monitor endpoint, and the doctor scrapes /metrics and
// /trace.json over HTTP, merges them, and writes a report that names at
// least one stall cause, what each node spent staging ahead of demand
// (prefetch helpers and idle loaders), and the feed's staged/late/pauses
// line.
func TestDoctorEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full training loop")
	}
	p := ChaosParams{}.withDefaults()
	opts, err := chaosOptions(p)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ring := obs.NewTraceRing(1 << 16)
	ring.SetProcess(1, "e2e")
	opts.Obs = reg
	opts.Trace = ring
	if _, err := runtime.Run(opts); err != nil {
		t.Fatalf("run aborted: %v", err)
	}

	mon, err := monitor.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	mon.SetRegistry(reg)
	mon.SetTrace(ring)

	metrics, trace, err := doctor.Collect([]string{"http://" + mon.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	rep := doctor.Analyze(metrics, trace)
	if len(rep.TopCauses) == 0 {
		t.Fatal("scraped report ranks no stall causes")
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, rep.TopCauses[0].Cause) {
		t.Errorf("report text does not name the top cause %q:\n%s", rep.TopCauses[0].Cause, out)
	}
	if !strings.Contains(out, "Per-rank decomposition") {
		t.Errorf("report text missing per-rank decomposition:\n%s", out)
	}
	if len(rep.Prefetch) != opts.Topology.Nodes || rep.PrefetchStaged == 0 {
		t.Errorf("report has prefetch causes for %d of %d nodes, %.0f samples staged",
			len(rep.Prefetch), opts.Topology.Nodes, rep.PrefetchStaged)
	}
	if rep.PrefetchWorkAhead == 0 || rep.PrefetchWorkAhead > rep.PrefetchStaged {
		t.Errorf("report has %.0f samples staged by idle loaders of %.0f staged: want some, and no more than all",
			rep.PrefetchWorkAhead, rep.PrefetchStaged)
	}
	if len(rep.EpochImbalance) == 0 {
		t.Error("report has no per-epoch imbalance rows: the barrier's instants did not reach the doctor")
	}
	for _, want := range []string{"Prefetch (helpers and idle loaders", "  node 0: ", "  node 1: ", "prefetch: staged ", " by idle loaders), late ", "refusal pauses ", "  storage: ", " per access)\n", "modeled delays: ", "Imbalanced iterations (per-rank stall spread > one training step): ", "  epoch 0: "} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}
