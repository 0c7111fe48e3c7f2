package kvstore

import (
	"sync"
	"sync/atomic"
	"time"
)

// Overload control for one shard server (DESIGN.md §11). Three gates
// run, cheapest first, before a request may touch the store:
//
//  1. Deadline: a request whose client-supplied budget (the frame's
//     flagDeadline field) has already expired is answered
//     statusRetryLater without any store work — finishing it late helps
//     no one.
//  2. Per-connection token bucket: each connection earns QuotaRate
//     tokens/sec up to QuotaBurst; a request with no token available is
//     shed. This stops one hot client from starving its peers.
//  3. Bounded in-flight gate: at most MaxInFlight requests execute
//     concurrently. A request arriving at a full gate queues — up to
//     MaxQueue waiters, each waiting at most its own deadline budget
//     (or MaxWait without one) — and is shed when the wait runs out.
//
// Shed responses are cheap by construction: the frame body still has to
// be drained to keep the connection's frame boundary, but no store
// locks are taken, no value bytes are looked up or sent, and the
// response is a fixed six-byte frame. Under sustained overload the
// server's work per excess request is bounded, which is what keeps
// goodput flat instead of collapsing (the BENCH_kv.json overload
// section measures exactly this).
//
// Stats ops are exempt from gates 2 and 3: monitoring must keep working
// while the data path sheds.

// AdmissionConfig bounds what a Server accepts before store work. The
// zero value disables every gate (the pre-admission behaviour).
type AdmissionConfig struct {
	// MaxInFlight caps requests executing concurrently against the
	// store; 0 = unlimited. Excess requests queue behind the gate.
	MaxInFlight int
	// MaxQueue caps requests waiting for an in-flight slot; a request
	// beyond it is shed immediately. 0 with MaxInFlight set defaults to
	// 4×MaxInFlight.
	MaxQueue int
	// MaxWait bounds how long a request with no client deadline may
	// wait for an in-flight slot. 0 defaults to 50ms. Requests carrying
	// a deadline wait at most their remaining budget.
	MaxWait time.Duration
	// QuotaRate is the sustained per-connection request rate
	// (tokens/sec); 0 = no quota.
	QuotaRate float64
	// QuotaBurst is the per-connection token-bucket depth; 0 with
	// QuotaRate set defaults to QuotaRate (a one-second burst).
	QuotaBurst float64
}

// defaultMaxWait bounds the slot wait of deadline-less requests.
const defaultMaxWait = 50 * time.Millisecond

// enabled reports whether any gate is configured.
func (c AdmissionConfig) enabled() bool {
	return c.MaxInFlight > 0 || c.QuotaRate > 0
}

// admitVerdict is one admission decision.
type admitVerdict int

const (
	admitOK admitVerdict = iota
	shedDeadline
	shedQuota
	shedQueue
)

// admitter is a Server's admission state. A nil admitter admits
// everything (every method is nil-safe), so the un-configured data path
// pays one pointer check per request.
type admitter struct {
	cfg   AdmissionConfig
	slots chan struct{} // in-flight gate; nil = unlimited

	waiters atomic.Int64 // requests queued for a slot right now

	shedDeadline atomic.Uint64
	shedQuota    atomic.Uint64
	shedQueue    atomic.Uint64
}

// newAdmitter builds the admission state; nil when cfg disables it.
func newAdmitter(cfg AdmissionConfig) *admitter {
	if !cfg.enabled() {
		return nil
	}
	if cfg.MaxInFlight > 0 && cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = defaultMaxWait
	}
	if cfg.QuotaRate > 0 && cfg.QuotaBurst <= 0 {
		cfg.QuotaBurst = cfg.QuotaRate
	}
	a := &admitter{cfg: cfg}
	if cfg.MaxInFlight > 0 {
		a.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	return a
}

// queueDepth reports requests executing plus requests waiting for a
// slot — the live backlog behind the gate, exported as
// lobster_kvstore_shard_queue_depth.
func (a *admitter) queueDepth() int64 {
	if a == nil {
		return 0
	}
	return int64(len(a.slots)) + a.waiters.Load()
}

// sheds snapshots the three shed counters.
func (a *admitter) sheds() (deadline, quota, queue uint64) {
	if a == nil {
		return 0, 0, 0
	}
	return a.shedDeadline.Load(), a.shedQuota.Load(), a.shedQueue.Load()
}

// connQuota is one connection's token bucket, refilled lazily on use.
type connQuota struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// newConnQuota starts a connection's bucket full, so short-lived
// clients are not taxed before their first refill.
func (a *admitter) newConnQuota(now time.Time) *connQuota {
	if a == nil || a.cfg.QuotaRate <= 0 {
		return nil
	}
	return &connQuota{tokens: a.cfg.QuotaBurst, last: now}
}

// allow spends one token if the bucket has one.
func (a *admitter) allow(q *connQuota, now time.Time) bool {
	if a == nil || q == nil {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	elapsed := now.Sub(q.last).Seconds()
	if elapsed > 0 {
		q.tokens += elapsed * a.cfg.QuotaRate
		if q.tokens > a.cfg.QuotaBurst {
			q.tokens = a.cfg.QuotaBurst
		}
		q.last = now
	}
	if q.tokens < 1 {
		return false
	}
	q.tokens--
	return true
}

// admit runs the quota and in-flight gates for one request. expiry is
// the request's deadline (zero = none); the deadline gate itself runs
// earlier, at frame parse, so an already-expired request never reaches
// here. On admitOK the caller owns one in-flight slot and must release()
// it when the request's store work is done.
func (a *admitter) admit(q *connQuota, expiry time.Time, now time.Time) admitVerdict {
	if a == nil {
		return admitOK
	}
	if !a.allow(q, now) {
		a.shedQuota.Add(1)
		return shedQuota
	}
	if a.slots == nil {
		return admitOK
	}
	select {
	case a.slots <- struct{}{}:
		return admitOK
	default:
	}
	return a.admitQueued(expiry, now)
}

// admitQueued is the slow path: the gate is full, so the request waits
// — bounded by the queue cap and by its deadline budget (or MaxWait).
// This wait is the "deadline-aware request queue": work that cannot
// start before its deadline is shed while still cheap, instead of
// executing after the client has given up.
func (a *admitter) admitQueued(expiry time.Time, now time.Time) admitVerdict {
	if a.waiters.Add(1) > int64(a.cfg.MaxQueue) {
		a.waiters.Add(-1)
		a.shedQueue.Add(1)
		return shedQueue
	}
	defer a.waiters.Add(-1)
	wait := a.cfg.MaxWait
	deadlined := !expiry.IsZero()
	if deadlined {
		wait = expiry.Sub(now)
		if wait <= 0 {
			a.shedDeadline.Add(1)
			return shedDeadline
		}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return admitOK
	case <-timer.C:
		if deadlined {
			a.shedDeadline.Add(1)
			return shedDeadline
		}
		a.shedQueue.Add(1)
		return shedQueue
	}
}

// release returns an in-flight slot taken by admit.
func (a *admitter) release() {
	if a == nil || a.slots == nil {
		return
	}
	<-a.slots
}
