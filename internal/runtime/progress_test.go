package runtime

import (
	"sync"
	"testing"

	"repro/internal/loader"
	"repro/internal/monitor"
)

func TestOnProgressPublishes(t *testing.T) {
	opts := testOptions(t, loader.NoPFS(2, 8), 1, 2)
	var mu sync.Mutex
	var snaps []Progress
	opts.OnProgress = func(p Progress) {
		mu.Lock()
		snaps = append(snaps, p)
		mu.Unlock()
	}
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	mu.Lock()
	defer mu.Unlock()
	if len(snaps) != stats.Iterations {
		t.Fatalf("got %d progress snapshots, want %d", len(snaps), stats.Iterations)
	}
	prev := 0
	for _, p := range snaps {
		if p.Iteration != prev+1 {
			t.Fatalf("iterations out of order: %d after %d", p.Iteration, prev)
		}
		prev = p.Iteration
		if p.TotalIters != stats.Iterations || p.HitRatio < 0 || p.HitRatio > 1 {
			t.Fatalf("bad snapshot: %+v", p)
		}
	}
	last := snaps[len(snaps)-1]
	if last.CacheHits+last.CacheMiss != stats.CacheHits+stats.CacheMisses {
		t.Fatalf("final snapshot lookups %d, stats %d",
			last.CacheHits+last.CacheMiss, stats.CacheHits+stats.CacheMisses)
	}
}

func TestProgressIntoMonitor(t *testing.T) {
	srv, err := monitor.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := testOptions(t, loader.PyTorch(2, 8), 1, 1)
	opts.OnProgress = func(p Progress) { srv.Update(p) }
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	if srv.Updates() != uint64(stats.Iterations) {
		t.Fatalf("monitor saw %d updates, want %d", srv.Updates(), stats.Iterations)
	}
}
