package preproc

import (
	"sync"
	"sync/atomic"
	"time"
)

// Completion collects one batch's preprocessing results and wakes the
// consumer exactly once, when the last result lands: one atomic decrement
// per sample and a single channel wake per batch, where a channel send
// per result would cost N receives. It is the pool's only delivery path.
//
// Protocol: Reset(n) arms the completion for an n-result batch; jobs
// carrying {Comp, Slot} have their Result written into slot Slot by the
// worker that ran them; Wait blocks until the last slot completes, then
// returns the slot-ordered results. Slot order is batch order, so —
// unlike draining a channel — the result sequence is deterministic.
//
// Memory model: each worker's slot write is sequenced before its atomic
// decrement; the final decrement observes all earlier decrements (atomic
// RMWs on one location are totally ordered), so every slot write
// happens-before the wake send, and the waiter reads fully-published
// results.
//
// The last result's landing is stamped (Done) on the completion's clock,
// time.Now unless SetClock gave it the consumer's: the time the batch was
// whole, however late its consumer woke. The stamp is written before the
// wake send, so the waiter reads it like the results.
//
// Completions are pooled: lease with GetCompletion, give back with
// Release once the results are consumed. The results slice is owned by
// the Completion — callers must not retain it past the next Reset or
// Release.
type Completion struct {
	results   []Result
	remaining atomic.Int64
	wake      chan struct{}
	now       func() time.Time
	done      time.Time
}

var completionPool = sync.Pool{
	New: func() any { return &Completion{wake: make(chan struct{}, 1), now: time.Now} },
}

// GetCompletion leases a Completion from the package pool. The runtime
// holds one per rank for the whole run, so pool traffic is per-run, not
// per-batch.
func GetCompletion() *Completion { return completionPool.Get().(*Completion) }

// Release returns the completion to the pool. No batch may be in
// flight, and the caller must not touch the completion (or the results
// slice it handed out) afterwards.
func (c *Completion) Release() {
	c.now = time.Now
	completionPool.Put(c)
}

// SetClock makes now the clock Done is stamped on. No batch may be in
// flight.
func (c *Completion) SetClock(now func() time.Time) { c.now = now }

// Reset arms the completion for a batch of n results. It must not be
// called while a previous batch is still in flight.
//
//lint:hotpath armed once per iteration on the training critical path; TestBatchedSteadyStateDoesNotAllocate pins 0 allocs/op
func (c *Completion) Reset(n int) {
	if cap(c.results) < n {
		//lint:allow hotpath amortized growth: one completion per rank, so this runs once per batch-size high-water mark
		c.results = make([]Result, n)
	}
	c.results = c.results[:n]
	for i := range c.results {
		c.results[i] = Result{}
	}
	c.remaining.Store(int64(n))
	if n == 0 {
		// No slots will ever complete; wake the waiter directly so
		// Reset(0)+Wait is well-defined. The empty batch is whole now.
		c.done = c.now()
		c.wake <- struct{}{}
	}
}

// complete records one slot's result; the last one wakes the waiter.
//
//lint:hotpath one call per sample on the batched completion path; TestBatchedSteadyStateDoesNotAllocate pins 0 allocs/op
func (c *Completion) complete(slot int, r Result) {
	c.results[slot] = r
	if c.remaining.Add(-1) == 0 {
		c.done = c.now()
		c.wake <- struct{}{}
	}
}

// Wait blocks until every armed slot has completed and returns the
// slot-ordered results. The slice is valid until the next Reset or
// Release.
//
//lint:hotpath one wake per batch on the training critical path; TestBatchedSteadyStateDoesNotAllocate pins 0 allocs/op
func (c *Completion) Wait() []Result {
	<-c.wake
	return c.results
}

// Done returns when the last result of the batch Wait returned landed,
// on the completion's clock. Valid from Wait's return until the next
// Reset.
func (c *Completion) Done() time.Time { return c.done }
