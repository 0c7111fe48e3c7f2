package kvstore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Hedged reads (DESIGN.md §11): when a cluster is configured with read
// replicas, Get and the per-shard halves of MultiGet race a primary
// request against a delayed "hedge" to the shard's first replica. The
// hedge fires only after the primary has been outstanding longer than a
// tracked latency quantile — so in the common case it never fires and
// costs nothing — and whichever response arrives first wins, with the
// loser cancelled through its context. One straggling shard therefore
// no longer sets the completion time of a whole prefetch window
// (NoPFS's observation: straggler remote reads become training stalls).
//
// Replication is write-through and best-effort: a failed or missed
// replica write degrades a future hedge to a cache miss, never to wrong
// data, because the kv tier is a cache — a hedged "not found" just
// sends the caller down its normal miss path.

// Defaults for the adaptive hedge delay.
const (
	defaultHedgeQuantile = 0.95
	defaultHedgeMin      = 200 * time.Microsecond
	defaultHedgeMax      = 5 * time.Millisecond
	// hedgeRingSize is the latency sample window behind the quantile.
	hedgeRingSize = 128
	// hedgeRecompute is how many new samples trigger a quantile
	// recomputation once the ring has warmed up.
	hedgeRecompute = 32
)

// hedgeTracker picks the hedge delay: a fixed configured value, or a
// tracked quantile of recent successful primary-read latencies, clamped
// to [min, max]. The current delay is cached atomically so the read hot
// path pays one load; the quantile itself is recomputed every
// hedgeRecompute samples (every sample while warming up).
type hedgeTracker struct {
	fixed    time.Duration
	quantile float64
	min, max time.Duration

	cached atomic.Int64 // current delay, nanoseconds

	mu    sync.Mutex
	ring  [hedgeRingSize]time.Duration
	pos   int
	n     int
	since int
}

func newHedgeTracker(fixed time.Duration, quantile float64, min, max time.Duration) *hedgeTracker {
	if quantile <= 0 || quantile >= 1 {
		quantile = defaultHedgeQuantile
	}
	if min <= 0 {
		min = defaultHedgeMin
	}
	if max <= min {
		max = defaultHedgeMax
		if max < min {
			max = 2 * min
		}
	}
	t := &hedgeTracker{fixed: fixed, quantile: quantile, min: min, max: max}
	// Until samples arrive, hedge conservatively late.
	t.cached.Store(int64(max))
	return t
}

// delay returns the current hedge delay.
func (t *hedgeTracker) delay() time.Duration {
	if t.fixed > 0 {
		return t.fixed
	}
	return time.Duration(t.cached.Load())
}

// observe records one successful primary-read latency. Hedged wins are
// not recorded: feeding replica latencies back in would ratchet the
// delay downward and fire ever more hedges.
func (t *hedgeTracker) observe(d time.Duration) {
	if t.fixed > 0 {
		return
	}
	t.mu.Lock()
	t.ring[t.pos] = d
	t.pos = (t.pos + 1) % hedgeRingSize
	if t.n < hedgeRingSize {
		t.n++
	}
	t.since++
	if t.since >= hedgeRecompute || t.n < hedgeRecompute {
		t.since = 0
		t.recomputeLocked()
	}
	t.mu.Unlock()
}

// recomputeLocked re-derives the cached delay from the ring. Called
// with t.mu held.
func (t *hedgeTracker) recomputeLocked() {
	var scratch [hedgeRingSize]time.Duration
	s := scratch[:t.n]
	copy(s, t.ring[:t.n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d := s[int(t.quantile*float64(t.n-1)+0.5)]
	if d < t.min {
		d = t.min
	}
	if d > t.max {
		d = t.max
	}
	t.cached.Store(int64(d))
}

// hedgeRes is one arm's outcome in a hedged race.
type hedgeRes struct {
	vals   [][]byte
	val    []byte
	found  bool
	err    error
	hedged bool
}

// hedgedRace runs the primary arm, fires the hedge arm after the
// tracked delay (or immediately on a fast primary error — failover),
// and returns the first success. The losing arm's request is cancelled
// through ctx; its late completion is absorbed by the buffered channel.
func (c *Cluster) hedgedRace(run func(ctx context.Context, hedged bool) hedgeRes) hedgeRes {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := make(chan hedgeRes, 2)
	launch := func(hedged bool) {
		go func() {
			r := run(ctx, hedged)
			r.hedged = hedged
			ch <- r
		}()
	}
	start := time.Now()
	launch(false)
	timer := time.NewTimer(c.hedge.delay())
	defer timer.Stop()
	outstanding, fired := 1, false
	fire := func() {
		fired = true
		c.hedgeFired.Add(1)
		launch(true)
		outstanding++
	}
	var firstErr hedgeRes
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.hedged {
					c.hedgeWon.Add(1)
				} else {
					c.hedge.observe(time.Since(start))
				}
				return r
			}
			if firstErr.err == nil {
				firstErr = r
			}
			if !fired {
				// The primary failed before the timer: fail over now
				// rather than waiting out the delay.
				fire()
			}
		case <-timer.C:
			if !fired {
				fire()
			}
		}
	}
	return firstErr
}

// hedgedGet races a single-key Get between primary pc and the live
// copy-holder rc that Cluster.hedgeIndex picked.
func (c *Cluster) hedgedGet(pc, rc *Client, key string) ([]byte, bool, error) {
	r := c.hedgedRace(func(ctx context.Context, hedged bool) hedgeRes {
		cl := pc
		if hedged {
			cl = rc
		}
		val, found, err := cl.GetContext(ctx, key)
		return hedgeRes{val: val, found: found, err: err}
	})
	return r.val, r.found, r.err
}

// hedgedMultiGet races one shard's batch between primary and replica.
func (c *Cluster) hedgedMultiGet(pc, rc *Client, keys []string) ([][]byte, error) {
	r := c.hedgedRace(func(ctx context.Context, hedged bool) hedgeRes {
		cl := pc
		if hedged {
			cl = rc
		}
		vals, err := cl.MultiGetContext(ctx, keys)
		return hedgeRes{vals: vals, err: err}
	})
	return r.vals, r.err
}

// PartialError reports a cluster batch op that failed on some shards
// while others succeeded. The values returned alongside it hold the
// healthy shards' results (failed shards' entries are nil, i.e. cache
// misses), so callers that can tolerate partial data — the runtime's
// prefetcher — keep what arrived instead of discarding the batch.
type PartialError struct {
	// Failed and Attempted count per-shard batches in the fan-out.
	Failed    int
	Attempted int
	// Err is the first per-shard error.
	Err error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("kvstore: %d/%d shard batches failed: %v", e.Failed, e.Attempted, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }
