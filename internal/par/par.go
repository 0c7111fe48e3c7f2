// Package par is the bounded fan-out helper behind every concurrent
// campaign sweep in the simulator: the experiments layer runs independent
// pipeline campaigns through one shared Pool, and perfmodel fits its
// per-size preprocessing models the same way.
//
// Design contract (DESIGN.md §9):
//
//   - Bounded: a Pool of W workers never has more than W goroutines
//     executing submitted work, no matter how many fan-outs share it.
//   - Deterministic: results are slotted by item index and errors are
//     reported lowest-index-first, so the output of a fan-out — and
//     therefore every experiment report built from it — is independent
//     of goroutine scheduling. Only wall time may change with W.
//   - Deadlock-free under nesting: the calling goroutine always executes
//     items itself, so a fan-out inside a fan-out (an experiment's
//     campaigns inside lobster-sim figures' experiment sweep, or FitPortfolio's
//     per-size fits inside a campaign) makes progress even when the pool
//     has no spare workers.
package par

import (
	"sync"
	"sync/atomic"
)

// Pool is a shared concurrency budget for fan-outs. The zero of *Pool
// (nil) is valid and means "run serially in the caller": callers thread
// an optional pool through without branching.
type Pool struct {
	workers int
	// spare holds the launch tokens for extra worker goroutines beyond
	// the caller itself: W-1 tokens, so that callers + extras never
	// exceed W running items. Tokens are taken non-blockingly — an
	// exhausted pool degrades to caller-only execution instead of
	// queueing, which is what makes nested fan-outs deadlock-free.
	spare chan struct{}
}

// NewPool returns a pool allowing up to `workers` items to execute
// concurrently across all fan-outs sharing it. workers < 1 is treated
// as 1 (serial).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, spare: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		p.spare <- struct{}{}
	}
	return p
}

// Workers returns the pool's concurrency bound (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// ForEach runs fn(i) for every i in [0, n). All items are attempted even
// after a failure (campaigns are independent; partial sweeps would make
// reports depend on scheduling), and the returned error is the one from
// the lowest failing index. fn must be safe for concurrent invocation
// with distinct i when the pool is wider than one; writes that item i
// makes to index i of a results slice are visible to the caller when
// ForEach returns.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if p == nil || p.workers == 1 || n == 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = fn(i)
		}
	}
	var wg sync.WaitGroup
	// Recruit extra workers only while spare tokens exist; each worker
	// returns its token when the fan-out drains. At most n-1 extras:
	// the caller is the n-th.
recruit:
	for extras := 0; extras < n-1; extras++ {
		select {
		case <-p.spare:
		default:
			break recruit // no spare capacity; caller-only from here
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { p.spare <- struct{}{} }()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over [0, n) with the pool and returns the results slotted
// by index. Error semantics match ForEach.
func Map[T any](p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
