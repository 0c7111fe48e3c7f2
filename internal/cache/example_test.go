package cache_test

import (
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/dataset"
)

// futureOracle is a toy clairvoyant oracle for the example (I = 100):
// sample 1 is reused at iteration 5, sample 2 at iteration 150 (within
// the next epoch), sample 9 at iteration 900 (far beyond it), and sample
// 3 never again.
type futureOracle struct{}

func (futureOracle) Future(id dataset.SampleID, after cache.Iter) (next cache.Iter, remaining int) {
	uses := map[dataset.SampleID]cache.Iter{1: 5, 2: 150, 9: 900}
	if u, ok := uses[id]; ok && after < u {
		return u, 1
	}
	return cache.NoAccess, 0
}

func (futureOracle) IterationsPerEpoch() int { return 100 }

// Example demonstrates the two sides of the Lobster policy (Section 4.4):
// prefetch coordination refuses to evict samples needed sooner than the
// incoming one, and the reuse-distance rule proactively drops samples not
// needed within the next epoch.
func Example() {
	policy := cache.NewLobster(futureOracle{}, cache.LobsterOptions{})
	c, err := cache.New(20, policy)
	if err != nil {
		log.Fatal(err)
	}
	c.Put(1, 10, 0) // next use at iteration 5
	c.Put(2, 10, 0) // next use at iteration 150 (within the next epoch)

	// Sample 3 is never used again: both residents are needed sooner, so
	// the insert is refused rather than wasting an eviction (the
	// "prioritize prefetches with the nearest reuse distance" rule).
	_, admitted := c.Put(3, 10, 0)
	fmt.Println("useless sample admitted:", admitted)

	// Sample 9 is needed only at iteration 900 — beyond the next epoch
	// (distance > 2*I - h). With free space it is cached, but the
	// reuse-distance rule immediately flags it, and the next maintenance
	// pass drops it to make room for more prefetches.
	c.Remove(2)
	_, admitted = c.Put(9, 10, 0)
	fmt.Println("far-future sample admitted:", admitted)
	fmt.Println("proactively dropped:", c.Maintain(0))
	// Output:
	// useless sample admitted: false
	// far-future sample admitted: true
	// proactively dropped: [9]
}
