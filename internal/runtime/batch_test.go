package runtime

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/preproc"
	"repro/internal/sampler"
)

// serialOracle recomputes what a run must load and fold with no queues,
// caches, pools or goroutines: rank by rank, iteration by iteration, the
// schedule's batch decoded straight from the dataset's payloads, folded
// the way Stats.DataFold documents (XOR of mixed checksums per batch, a
// multiplicative chain per rank, the same chain across ranks).
func serialOracle(t *testing.T, opts Options) (fold, samples uint64) {
	t.Helper()
	world := opts.Topology.WorldSize()
	sched, err := sampler.New(opts.Dataset, sampler.Config{
		WorldSize: world, BatchSize: opts.Model.BatchSize, Seed: opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var batch []dataset.SampleID
	for rank := 0; rank < world; rank++ {
		var rankFold uint64
		for epoch := 0; epoch < opts.Epochs; epoch++ {
			for it := 0; it < sched.IterationsPerEpoch(); it++ {
				batch = sched.Batch(batch[:0], epoch, it, rank)
				var batchFold uint64
				for _, id := range batch {
					tensor, err := preproc.Decode(opts.Dataset.Payload(id), id)
					if err != nil {
						t.Fatal(err)
					}
					batchFold ^= mix64(tensor.Checksum)
					preproc.PutTensor(tensor)
				}
				rankFold = rankFold*1099511628211 + mix64(batchFold)
				samples += uint64(len(batch))
			}
		}
		fold = fold*1099511628211 + rankFold
	}
	return fold, samples
}

// checkOracle fails the test unless the run loaded, verified and folded
// exactly the data serialOracle computes for opts: faults may slow a run
// down, never change what it trains on.
func checkOracle(t *testing.T, opts Options, got *Stats) {
	t.Helper()
	wantFold, wantSamples := serialOracle(t, opts)
	if got.DataFold != wantFold {
		t.Errorf("DataFold %#x, oracle %#x", got.DataFold, wantFold)
	}
	if got.SamplesLoaded != wantSamples || got.SamplesVerified != wantSamples {
		t.Errorf("loaded %d, verified %d, oracle %d", got.SamplesLoaded, got.SamplesVerified, wantSamples)
	}
}

// TestRunMatchesSerialOracle is the differential gate for the data path:
// whatever the transport does (chunked queue messages whose size follows
// the dynamic strategy's live resizes, one batch of lookahead, peer and
// prefetch traffic), a run must load, verify and fold exactly the data
// the schedule names — and do so identically when repeated.
func TestRunMatchesSerialOracle(t *testing.T) {
	for _, c := range []struct {
		name  string
		spec  loader.Spec
		nodes int
	}{
		{"Lobster-4x2", loader.Lobster(), 4},
		{"NoPFS-1x2", loader.NoPFS(2, 8), 1},
		{"PyTorch-2x2", loader.PyTorch(2, 8), 2},
		{"Lobster-4x2-repeat", loader.Lobster(), 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := testOptions(t, c.spec, c.nodes, 2)
			got, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			checkOracle(t, opts, got)
		})
	}
}
