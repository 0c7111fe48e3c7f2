package preproc

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestResizeStormDoesNotBlock is the crew's storm test, for the pool and
// the runtime's loading queues alike. Every worker is wedged, so nobody
// takes a stop token: a shrink far past the channel bound must return at
// once, banking the overflow as stop debt, and a grow must cancel that
// debt before it starts a goroutine. Released, the crew converges on its
// target.
func TestResizeStormDoesNotBlock(t *testing.T) {
	const big = crewStopsCap + 44
	gate, done := make(chan struct{}), make(chan struct{})
	var live atomic.Int64
	var c *Crew
	c = NewCrew("worker", func() {
		live.Add(1)
		defer live.Add(-1)
		<-gate
		for !c.ClaimStopDebt() {
			select {
			case <-c.Stops():
				return
			case <-done:
				return
			}
		}
	})
	c.Resize(big)
	c.Resize(1)
	if got, want := c.stopDebt.Load(), int64(big-1-crewStopsCap); got != want {
		t.Fatalf("stop debt %d after the first shrink, want %d", got, want)
	}
	c.Resize(big)
	if got := c.stopDebt.Load(); got != 0 {
		t.Fatalf("stop debt %d after a grow, want it cancelled", got)
	}
	// The channel is full from here on: each shrink is all debt, and each
	// grow cancels it all without starting a goroutine.
	for i := 0; i < 50; i++ {
		c.Resize(1)
		if got := c.stopDebt.Load(); got != big-1 {
			t.Fatalf("storm round %d: stop debt %d after a shrink, want %d", i, got, big-1)
		}
		c.Resize(big)
		if got := c.stopDebt.Load(); got != 0 {
			t.Fatalf("storm round %d: stop debt %d after a grow, want 0", i, got)
		}
	}
	c.Resize(4)
	if got := c.Size(); got != 4 {
		t.Fatalf("target %d after storm, want 4", got)
	}

	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for live.Load() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still running, want 4", live.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if len(c.Stops()) != 0 || c.stopDebt.Load() != 0 {
		t.Fatalf("%d tokens and %d debt left over", len(c.Stops()), c.stopDebt.Load())
	}
	close(done)
	c.Wait()
}
