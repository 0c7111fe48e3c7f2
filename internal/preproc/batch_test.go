package preproc

import (
	"sync"
	"testing"

	"repro/internal/dataset"
)

// makeJobs builds n decodable jobs against comp, drawing payloads from
// the size-classed pool (Owned, so workers recycle them after decode).
func makeJobs(jobs []Job, n, size int, comp *Completion) []Job {
	jobs = jobs[:0]
	for i := 0; i < n; i++ {
		buf := GetPayloadBuf(size)
		dataset.FillPayload(buf, 7, dataset.SampleID(i))
		jobs = append(jobs, Job{
			ID:      dataset.SampleID(i),
			Payload: buf,
			Seed:    uint64(i),
			Comp:    comp,
			Slot:    i,
			Owned:   true,
		})
	}
	return jobs
}

func TestSubmitBatchSlotOrdered(t *testing.T) {
	p, err := NewPool(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	comp := GetCompletion()
	defer comp.Release()
	const n = 32
	var jobs []Job
	for round := 0; round < 5; round++ {
		comp.Reset(n)
		jobs = makeJobs(jobs, n, 256, comp)
		p.SubmitBatch(jobs)
		results := comp.Wait()
		if len(results) != n {
			t.Fatalf("round %d: %d results, want %d", round, len(results), n)
		}
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("round %d slot %d: %v", round, i, res.Err)
			}
			if res.Tensor == nil || res.Tensor.ID != dataset.SampleID(i) {
				t.Fatalf("round %d slot %d holds sample %v, want %d (results must be slot-ordered)",
					round, i, res.Tensor, i)
			}
			if res.Tensor.Checksum == 0 {
				t.Fatalf("round %d slot %d: zero checksum", round, i)
			}
			PutTensor(res.Tensor)
		}
	}
	if got := p.Processed(); got != 5*n {
		t.Fatalf("processed %d jobs, want %d", got, 5*n)
	}
}

// TestSubmitBatchMatchesSubmit pins that batched delivery decodes to the
// same tensors as per-sample delivery for identical inputs.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	p, err := NewPool(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 16
	done := make(chan Result, n)
	want := make(map[dataset.SampleID]uint64, n)
	for i := 0; i < n; i++ {
		buf := make([]byte, 300)
		dataset.FillPayload(buf, 7, dataset.SampleID(i))
		p.Submit(Job{ID: dataset.SampleID(i), Payload: buf, Seed: uint64(i), Done: done})
	}
	for i := 0; i < n; i++ {
		res := <-done
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		want[res.Tensor.ID] = res.Tensor.Checksum
	}
	comp := GetCompletion()
	defer comp.Release()
	comp.Reset(n)
	var jobs []Job
	for i := 0; i < n; i++ {
		buf := make([]byte, 300)
		dataset.FillPayload(buf, 7, dataset.SampleID(i))
		jobs = append(jobs, Job{ID: dataset.SampleID(i), Payload: buf, Seed: uint64(i), Comp: comp, Slot: i})
	}
	p.SubmitBatch(jobs)
	for i, res := range comp.Wait() {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Tensor.Checksum != want[dataset.SampleID(i)] {
			t.Fatalf("slot %d checksum %#x, per-sample path got %#x",
				i, res.Tensor.Checksum, want[dataset.SampleID(i)])
		}
	}
}

// TestBatchedSteadyStateDoesNotAllocate is the dynamic twin of the
// //lint:hotpath annotations on SubmitBatch, Completion.Reset/complete/
// Wait and the pooled buffers: one warmed-up batch round trip —
// payload lease, submit, decode, deliver, tensor recycle — must not
// allocate, and neither must the workers' fused decode+augment pass on
// its own (its jittered table has to stay on the stack).
func TestBatchedSteadyStateDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and defeats sync.Pool")
	}
	p, err := NewPool(2, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	comp := GetCompletion()
	defer comp.Release()
	const n, size = 8, 256
	var jobs []Job
	jobs = make([]Job, 0, n)
	round := func() {
		comp.Reset(n)
		jobs = makeJobs(jobs, n, size, comp)
		p.SubmitBatch(jobs)
		for _, res := range comp.Wait() {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			PutTensor(res.Tensor)
		}
	}
	// Warm the pools (completion results, payload and tensor classes)
	// before measuring.
	for i := 0; i < 10; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("batched steady state allocates %.1f times per round, want 0", allocs)
	}
	payload := make([]byte, size)
	dataset.FillPayload(payload, 7, 3)
	fused := func() {
		tensor, err := decodeAugment(payload, 3, 5)
		if err != nil {
			t.Fatal(err)
		}
		PutTensor(tensor)
	}
	if allocs := testing.AllocsPerRun(200, fused); allocs != 0 {
		t.Fatalf("decodeAugment allocates %.1f times per sample, want 0", allocs)
	}
}

// TestResizeStormDoesNotBlock forces the stop-token channel to
// overflow: all workers are wedged mid-job, so nobody drains tokens,
// and a shrink far past the channel bound must return immediately by
// banking the overflow as stop debt (the documented bound — see
// poolStopsCap — affects promptness only, never controller liveness).
func TestResizeStormDoesNotBlock(t *testing.T) {
	p, err := newPool(8, 64, 2) // stop channel bound of 2
	if err != nil {
		t.Fatal(err)
	}
	// Wedge every worker: unbuffered Done with no receiver blocks the
	// delivery send.
	stuck := make(chan Result)
	const wedged = 8
	for i := 0; i < wedged; i++ {
		buf := make([]byte, 128)
		dataset.FillPayload(buf, 7, dataset.SampleID(i))
		p.Submit(Job{ID: dataset.SampleID(i), Payload: buf, Seed: 0, Done: stuck})
	}
	// A storm of full-range resizes. Before the debt mechanism the third
	// shrink would block forever on the size-2 stops channel.
	for i := 0; i < 50; i++ {
		if err := p.Resize(1); err != nil {
			t.Fatal(err)
		}
		if err := p.Resize(8); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Resize(4); err != nil {
		t.Fatal(err)
	}
	// Unwedge and check the pool still works and converges: every job
	// completes, including fresh ones submitted after the storm.
	var sub sync.WaitGroup
	sub.Add(1)
	go func() {
		defer sub.Done()
		buf := make([]byte, 128)
		dataset.FillPayload(buf, 7, 99)
		p.Submit(Job{ID: 99, Payload: buf, Seed: 0, Done: stuck})
	}()
	for i := 0; i < wedged+1; i++ {
		if res := <-stuck; res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	sub.Wait()
	p.Close()
	if got := p.Processed(); got != wedged+1 {
		t.Fatalf("processed %d, want %d", got, wedged+1)
	}
	if p.Workers() != 4 {
		t.Fatalf("target %d after storm, want 4", p.Workers())
	}
}

// TestSubmitBatchResizeRace runs 8 batching ranks against a resize
// storm under the race detector — the shape the dynamic thread manager
// produces every iteration on a shared node pool.
func TestSubmitBatchResizeRace(t *testing.T) {
	p, err := NewPool(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	const ranks, rounds, n = 8, 20, 8
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			comp := GetCompletion()
			defer comp.Release()
			var jobs []Job
			for round := 0; round < rounds; round++ {
				comp.Reset(n)
				jobs = makeJobs(jobs, n, 512, comp)
				p.SubmitBatch(jobs)
				for i, res := range comp.Wait() {
					if res.Err != nil {
						t.Errorf("slot %d: %v", i, res.Err)
						return
					}
					PutTensor(res.Tensor)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			if err := p.Resize(1 + i%7); err != nil {
				t.Errorf("Resize: %v", err)
			}
		}
	}()
	wg.Wait()
	p.Close()
	if got := p.Processed(); got != ranks*rounds*n {
		t.Fatalf("processed %d, want %d", got, ranks*rounds*n)
	}
}
