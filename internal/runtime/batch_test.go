package runtime

import (
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/preproc"
)

// TestBatchedPathMatchesPerSample is the differential gate for the
// batched data path: the same seed and topology run through the legacy
// per-sample path (Options.PerSample) and the batched path must load,
// verify, and fold byte-identical data — batching and the one batch of
// lookahead are transport changes, not semantic ones. 8 ranks with the
// dynamic strategy, so batched submits run concurrently with live pool
// resizes.
func TestBatchedPathMatchesPerSample(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 4, 2)

	batched, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if batched.DataFold == 0 {
		t.Fatal("batched run produced zero DataFold")
	}
	if batched.SamplesVerified != batched.SamplesLoaded {
		t.Fatalf("verified %d of %d loaded samples", batched.SamplesVerified, batched.SamplesLoaded)
	}

	// The pipelined batched path loads batch h+1 under batch h's compute;
	// the per-sample path is synchronous. An explicit chunk size changes
	// only how many samples ride in each queue message. And the batched
	// path must be deterministic run to run.
	for _, v := range []struct {
		name   string
		mutate func(*Options)
	}{
		{"per-sample", func(o *Options) { o.PerSample = true }},
		{"LoadChunk=3", func(o *Options) { o.Strategy.LoadChunk = 3 }},
		{"repeat", func(*Options) {}},
	} {
		o := opts
		v.mutate(&o)
		got, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if got.DataFold != batched.DataFold {
			t.Fatalf("%s: DataFold %#x, batched %#x", v.name, got.DataFold, batched.DataFold)
		}
		if got.SamplesLoaded != batched.SamplesLoaded {
			t.Fatalf("%s: SamplesLoaded %d, batched %d", v.name, got.SamplesLoaded, batched.SamplesLoaded)
		}
		if got.SamplesVerified != batched.SamplesVerified {
			t.Fatalf("%s: SamplesVerified %d, batched %d", v.name, got.SamplesVerified, batched.SamplesVerified)
		}
	}
}

// TestGPUQueueResizeStormDoesNotBlock wedges every loading worker (the
// preprocessing pool below them is plugged), then storms resize far
// past the stop-token channel bound. Before the stop-debt mechanism the
// controller would block forever on the full channel.
func TestGPUQueueResizeStormDoesNotBlock(t *testing.T) {
	ds, err := dataset.Generate(dataset.Spec{
		Name: "storm", NumSamples: 16, MeanSize: 4 << 10, SigmaLog: 0.1,
		MinSize: 1 << 10, Classes: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir, err := NewDirectory(ds.Len(), 1)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := newNodeCache(0, 1<<30, cache.NewLRU(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		id := dataset.SampleID(i)
		nc.put(id, ds.Payload(id), 0, false, false)
	}
	// A one-worker, one-slot preprocessing pool, wedged by a job whose
	// unbuffered Done has no receiver yet: the loading workers' Submits
	// back up behind it.
	pre, err := preproc.NewPool(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	stuck := make(chan preproc.Result)
	pre.Submit(preproc.Job{ID: 0, Payload: ds.Payload(0), Done: stuck})

	node := &nodeRuntime{node: 0, rt: &Runtime{}, cache: nc, pre: pre}
	var wg sync.WaitGroup
	q := newGPUQueueCap(node, 0, 4, &wg, 2) // stop channel bound of 2

	const reqs = 8
	out := make(chan preproc.Result, reqs)
	for i := 0; i < reqs; i++ {
		q.submit(loadRequest{id: dataset.SampleID(i % ds.Len()), seed: uint64(i), out: out})
	}
	// Give the four workers time to wedge inside pre.Submit, then storm.
	for i := 0; i < 50; i++ {
		q.resize(1)
		q.resize(32)
	}
	q.resize(4)
	if got := q.workers(); got != 4 {
		t.Fatalf("target %d after storm, want 4", got)
	}

	// Unplug the pool and drain everything the queue accepted.
	if res := <-stuck; res.Err != nil {
		t.Fatal(res.Err)
	}
	for i := 0; i < reqs; i++ {
		if res := <-out; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	close(q.reqs)
	wg.Wait()
	pre.Close()
}
