package monitor

import (
	"net/http"
	"sync"
	"testing"
)

// TestServerMultiWriterRace publishes snapshots from several goroutines
// while /healthz is probed concurrently — the monitor's RWMutex and the
// atomic update counter under full contention. The per-node progress
// callbacks of a multi-node runtime produce exactly this pattern.
func TestServerMultiWriterRace(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	const writers, updates = 4, 50
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < updates; i++ {
				s.Update(map[string]int{"writer": w, "i": i})
			}
		}()
	}
	const probers = 4
	for p := 0; p < probers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get("http://" + s.Addr() + "/healthz")
				if err != nil {
					t.Errorf("GET /healthz: %v", err)
					return
				}
				_ = resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if got := s.Updates(); got != writers*updates {
		t.Fatalf("updates = %d, want %d", got, writers*updates)
	}
}
