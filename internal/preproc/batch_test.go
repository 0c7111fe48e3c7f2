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

// TestSubmitBatchMatchesSubmit pins that packing jobs into blocks
// changes nothing a tensor holds: a batch submitted one job at a time
// (every block carries one job) decodes to the same checksums as the
// same batch submitted whole, and both equal the fused decode+augment
// run directly.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	p, err := NewPool(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const n = 16
	comp := GetCompletion()
	defer comp.Release()
	comp.Reset(n)
	for _, job := range makeJobs(nil, n, 300, comp) {
		p.SubmitBatch([]Job{job})
	}
	one := make([]uint64, n)
	for i, res := range comp.Wait() {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		one[i] = res.Tensor.Checksum
	}
	payload := make([]byte, 300)
	for i, res := range runBatch(p, comp, n, 300) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		dataset.FillPayload(payload, 7, dataset.SampleID(i))
		direct, err := decodeAugment(payload, dataset.SampleID(i), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Tensor.Checksum != one[i] || one[i] != direct.Checksum {
			t.Fatalf("slot %d checksum %#x batched, %#x one job at a time, %#x direct",
				i, res.Tensor.Checksum, one[i], direct.Checksum)
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
