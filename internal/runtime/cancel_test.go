package runtime

import (
	"context"
	"testing"
	"time"

	"repro/internal/loader"
)

func TestRunContextCancellation(t *testing.T) {
	opts := testOptions(t, loader.NoPFS(2, 8), 1, 50) // far more epochs than we will run
	opts.TimeScale = 0.05                             // slow enough to cancel mid-run
	nodes := captureNodes(t)
	ctx, cancel := context.WithCancel(context.Background())
	//lint:allow goroutine sleeps a fixed 300ms, cancels, and exits; nothing outlives the test body
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	stats, err := RunContext(ctx, opts)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats == nil {
		t.Fatal("no partial stats returned")
	}
	fullIters := 50 * 32 // epochs * itersPerEpoch for this config
	if stats.Iterations <= 0 || stats.Iterations >= fullIters {
		t.Fatalf("partial iterations = %d, want in (0, %d)", stats.Iterations, fullIters)
	}
	// Shutdown must be prompt: well under the full-run duration.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// Every sample the run did load must still verify.
	if stats.SamplesVerified != stats.SamplesLoaded {
		t.Fatalf("verified %d of %d after cancellation", stats.SamplesVerified, stats.SamplesLoaded)
	}
	checkTeardown(t, "cancelled run", *nodes)
}

func TestRunContextCompletesWithoutCancel(t *testing.T) {
	opts := testOptions(t, loader.PyTorch(2, 8), 1, 1)
	stats, err := RunContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 * 32 // one epoch
	if stats.Iterations != want {
		t.Fatalf("iterations = %d, want %d", stats.Iterations, want)
	}
	checkOracle(t, opts, stats)
}

func TestRunContextPreCancelled(t *testing.T) {
	opts := testOptions(t, loader.PyTorch(2, 8), 1, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := RunContext(ctx, opts)
	if err != context.Canceled {
		t.Fatalf("err = %v", err)
	}
	// At most one iteration can slip in before the first barrier.
	if stats.Iterations > 1 {
		t.Fatalf("ran %d iterations under a pre-cancelled context", stats.Iterations)
	}
}
