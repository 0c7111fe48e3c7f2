package preproc

import (
	"sync"
	"testing"
)

// TestPoolResizeRace hammers Resize from several goroutines while
// submissions are in flight — the shape the thread manager produces
// when per-GPU decisions land on a shared node pool. Run under -race
// this guards the lock-free stop-token delivery (tokens are sent after
// the crew's lock is released; see Crew.Resize).
func TestPoolResizeRace(t *testing.T) {
	p, err := NewPool(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	const rounds, n = 30, 10
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sizes := []int{1, 6, 2, 8, 3, 5, 1, 7}
			for i, s := range sizes {
				if err := p.Resize(s + g%2); err != nil {
					t.Errorf("Resize: %v", err)
				}
				_ = p.Workers()
				_ = i
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		comp := GetCompletion()
		defer comp.Release()
		for round := 0; round < rounds; round++ {
			for _, r := range runBatch(p, comp, n, 256) {
				if r.Err != nil {
					t.Error(r.Err)
					return
				}
			}
		}
	}()
	wg.Wait()
	p.Close()
	if got := p.Processed(); got != rounds*n {
		t.Fatalf("processed = %d, want %d", got, rounds*n)
	}
}
