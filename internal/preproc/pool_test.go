package preproc

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0, 1); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewPool(1, 0); err == nil {
		t.Error("zero queue accepted")
	}
}

// runBatch submits jobs for samples 0..n-1 as one batch on comp and
// returns the slot-ordered results.
func runBatch(p *Pool, comp *Completion, n, size int) []Result {
	comp.Reset(n)
	p.SubmitBatch(makeJobs(nil, n, size, comp))
	return comp.Wait()
}

func TestPoolProcessesJobs(t *testing.T) {
	p, err := NewPool(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	comp := GetCompletion()
	defer comp.Release()

	const n = 20
	for i, r := range runBatch(p, comp, n, 2048) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Tensor.ID != dataset.SampleID(i) {
			t.Fatalf("slot %d holds sample %d", i, r.Tensor.ID)
		}
	}
	if p.Processed() != n {
		t.Fatalf("Processed = %d, want %d", p.Processed(), n)
	}
}

func TestPoolReportsDecodeErrors(t *testing.T) {
	p, _ := NewPool(1, 1)
	defer p.Close()
	comp := GetCompletion()
	defer comp.Release()
	buf := make([]byte, 2048)
	dataset.FillPayload(buf, 1, 5)
	comp.Reset(1)
	p.SubmitBatch([]Job{{ID: 6, Payload: buf, Comp: comp}}) // wrong id
	if r := comp.Wait()[0]; r.Err == nil {
		t.Fatal("decode error not reported")
	}
}

func TestPoolResize(t *testing.T) {
	p, _ := NewPool(1, 64)
	defer p.Close()
	if err := p.Resize(4); err != nil {
		t.Fatal(err)
	}
	if got := p.Workers(); got != 4 {
		t.Fatalf("Workers = %d, want 4", got)
	}
	if err := p.Resize(2); err != nil {
		t.Fatal(err)
	}
	if got := p.Workers(); got != 2 {
		t.Fatalf("Workers = %d, want 2", got)
	}
	if err := p.Resize(0); err == nil {
		t.Fatal("Resize(0) accepted")
	}
	// The pool must still process work after shrinking.
	comp := GetCompletion()
	defer comp.Release()
	for _, r := range runBatch(p, comp, 8, 1024) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

func TestPoolConcurrentSubmitAndResize(t *testing.T) {
	p, _ := NewPool(2, 16)
	defer p.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		comp := GetCompletion()
		defer comp.Release()
		for round := 0; round < 25; round++ {
			for _, r := range runBatch(p, comp, 8, 512) {
				if r.Err != nil {
					t.Error(r.Err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		sizes := []int{1, 3, 2, 5, 1, 4}
		for _, s := range sizes {
			if err := p.Resize(s); err != nil {
				t.Errorf("Resize: %v", err)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
}

func TestPoolCloseIdempotent(t *testing.T) {
	p, _ := NewPool(1, 1)
	p.Close()
	p.Close() // must not panic
	if err := p.Resize(2); err == nil {
		t.Fatal("Resize after Close accepted")
	}
}

func TestPoolSetDecodeDelay(t *testing.T) {
	p, err := NewPool(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	comp := GetCompletion()
	defer comp.Release()
	decode := func() time.Duration {
		start := time.Now()
		if r := runBatch(p, comp, 1, 2048)[0]; r.Err != nil {
			t.Fatal(r.Err)
		}
		return time.Since(start)
	}

	p.SetDecodeDelay(25*time.Millisecond, 0, 1)
	if d := decode(); d < 20*time.Millisecond {
		t.Fatalf("injected decode delay not applied: job took %v", d)
	}
	// Clearing restores fast decodes.
	p.SetDecodeDelay(0, 0, 0)
	if d := decode(); d > 15*time.Millisecond {
		t.Fatalf("decode delay survived clearing: job took %v", d)
	}
}

func TestPoolDecodeDelayJitterDeterministic(t *testing.T) {
	// Same seed => same jitter sequence: pin via the RNG the fault type
	// draws from (the sleep itself is wall clock; the draws must not be).
	draws := func(seed uint64) []time.Duration {
		f := &decodeFault{jitter: time.Second, rng: stats.NewRNG(seed)}
		var out []time.Duration
		for i := 0; i < 8; i++ {
			f.mu.Lock()
			out = append(out, time.Duration(f.rng.Int63()%int64(f.jitter)))
			f.mu.Unlock()
		}
		return out
	}
	a, b := draws(7), draws(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
