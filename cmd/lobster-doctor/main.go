// Command lobster-doctor diagnoses a training run's bottlenecks from
// its observability exhaust. Point it at one or more monitor endpoints
// (the runtime's and/or lobster-kv shards') or at saved /metrics and
// /trace.json files, and it prints a ranked report: the dominant stall
// causes per rank and overall, what each node spent staging ahead of
// demand (prefetch helpers and idle loaders) and how many prefetches came
// too late, straggler ranks, the iterations the runtime's barrier flagged
// as load-imbalanced with each epoch's share and the rank most often
// critical in them, the run's model error (the "modeled delays" line)
// and the recovery layer's cost (failovers).
//
// Examples:
//
//	lobster-doctor http://127.0.0.1:7100                 # live monitor
//	lobster-doctor http://node0:7100 http://node1:7100   # merged nodes
//	lobster-doctor metrics.txt trace.json                # saved files
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/doctor"
)

func main() {
	flag.Usage = func() {
		_, _ = fmt.Fprintf(flag.CommandLine.Output(), // best-effort usage text; stderr has no recovery
			"usage: lobster-doctor <monitor-url|file> [...]\n\n"+
				"Sources are monitor base URLs (their /metrics and /trace.json are\n"+
				"scraped) or saved files (content-sniffed). Multiple sources merge\n"+
				"into one cross-node report.\n\n"+
				"\"modeled delays: N waits\" counts the waits on the run's clock: one\n"+
				"train wait per iteration (the barrier waits once for the latest\n"+
				"rank's booked compute), one per storage or peer read a loading\n"+
				"worker waits for, and one per due set of a node's prefetch loop;\n"+
				"its overshoot is how late each wait returned past its deadline.\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	metrics, trace, err := doctor.Collect(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lobster-doctor:", err)
		os.Exit(1)
	}
	report := doctor.Analyze(metrics, trace)
	if err := report.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lobster-doctor:", err)
		os.Exit(1)
	}
}
