// Package runtime is the online half of Lobster (Section 4.5): a real,
// concurrent data-loading runtime built on goroutines. Where
// internal/pipeline computes what would happen in virtual time, this
// package actually does it: worker pools load payload bytes through
// throttled storage tiers, a resizable preprocessing pool decodes and
// augments them, per-GPU request queues feed trainer goroutines that
// synchronize on a data-parallel barrier, and a distribution manager
// stands in for MPI between node-local caches: it charges the modeled
// interconnect delay, then copies straight out of the holder's cache.
//
// Wall-clock durations are the modeled ones multiplied by Options.
// TimeScale, so integration tests and examples run in milliseconds while
// exercising the same code paths a full-speed deployment would.
package runtime

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/preproc"
	"repro/internal/stats"
	"repro/internal/tier"
)

// Throttle is a shared bandwidth resource booked FIFO: reserve takes the
// next transfer slot and says when it completes; the caller books that
// delay on its clock. It models the aggregate-throughput curves of
// internal/tier in real time.
type Throttle struct {
	mu    sync.Mutex
	next  time.Time
	scale float64 // time scale factor (1.0 = modeled real time)
	clk   clock
}

func newThrottle(scale float64, clk clock) *Throttle {
	return &Throttle{scale: scale, clk: clk}
}

// reserve books `cost` modeled seconds of the resource for a transfer
// that arrives `after` from now, and returns how long from now until the
// transfer completes. It does not wait. Slots go out in the order reserve
// is called, which is how a saturated link behaves, and a slot never
// starts before its transfer arrives.
func (t *Throttle) reserve(cost float64, after time.Duration) time.Duration {
	d := time.Duration(cost * t.scale * float64(time.Second))
	t.mu.Lock()
	now := t.clk.now()
	start := now.Add(after)
	if start.Before(t.next) {
		start = t.next
	}
	end := start.Add(d)
	t.next = end
	t.mu.Unlock()
	return end.Sub(now)
}

// PFSStore serves sample payloads the way a parallel file system would:
// deterministic contents, per-operation latency, and a shared bandwidth
// throttle across all clients.
type PFSStore struct {
	ds       *dataset.Dataset
	seed     uint64
	curve    tier.Curve
	throttle *Throttle
	scale    float64
	clk      clock

	mu       sync.Mutex
	nOps     int64
	failures int64
	fault    chaos.Fault // degraded-mode state: error rate + extra latency
	rng      *stats.RNG
}

// ErrTransient is the sentinel for injected transient read failures (RPC
// timeouts, OST hiccups). Callers retry, matching with errors.Is so
// wrapped transients — as the retry helper produces on an exhausted
// budget — still count. See SetFault.
var ErrTransient = errors.New("runtime: transient PFS failure")

// NewPFSStore builds the store for a dataset. seed must match the
// dataset's generation seed so payload verification passes end to end.
func NewPFSStore(ds *dataset.Dataset, seed uint64, curve tier.Curve, scale float64) *PFSStore {
	return newPFSStore(ds, seed, curve, scale, defaultClock())
}

func newPFSStore(ds *dataset.Dataset, seed uint64, curve tier.Curve, scale float64, clk clock) *PFSStore {
	return &PFSStore{
		ds:       ds,
		seed:     seed,
		curve:    curve,
		throttle: newThrottle(scale, clk),
		scale:    scale,
		clk:      clk,
		rng:      stats.NewRNG(stats.DeriveSeed(seed, 0xfa11)),
	}
}

// SetFault applies a chaos brownout to the store: every Read pays
// Fault.Lag plus a uniform draw from [0, Jitter) on top of the modeled
// latency, and independently fails with ErrRate (returning
// ErrTransient). A non-zero Fault.Seed reseeds the draw RNG, making the
// brownout window's failure pattern replayable. The zero Fault restores
// health.
func (s *PFSStore) SetFault(f chaos.Fault) {
	s.mu.Lock()
	s.fault = f
	if f.Seed != 0 {
		s.rng = stats.NewRNG(f.Seed)
	}
	s.mu.Unlock()
}

// Failures returns the number of injected failures so far.
func (s *PFSStore) Failures() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures
}

// pfsRead is one read PFSStore.book has booked: when it completes on the
// store's clock, and what it delivers then.
type pfsRead struct {
	id     dataset.SampleID
	due    time.Time
	failed bool // drawn as a transient failure: delivers ErrTransient
}

// Read fetches one sample, paying latency and bandwidth in one wait
// (DESIGN.md §15): book, wait until the booking's deadline, deliver.
func (s *PFSStore) Read(id dataset.SampleID) ([]byte, error) {
	r, err := s.book(id)
	if err != nil {
		return nil, err
	}
	s.clk.until(r.due)
	return s.deliver(r)
}

// book books one read without waiting for it: the op latency, then the
// brownout lag, then the sample's slot of the shared bandwidth, queued
// behind the slots booked before it. A read drawn as a failure books its
// latency and lag only.
func (s *PFSStore) book(id dataset.SampleID) (pfsRead, error) {
	if int(id) < 0 || int(id) >= s.ds.Len() {
		return pfsRead{}, fmt.Errorf("runtime: sample %d out of range", id)
	}
	// Latency is per-op and independent; bandwidth is shared.
	arrive := time.Duration(s.curve.OpLatency * s.scale * float64(time.Second))
	s.mu.Lock()
	f := s.fault
	// Brownout latency is wall-clock and applies to failures too — a
	// timed-out request costs its timeout.
	arrive += f.Lag
	if f.Jitter > 0 {
		arrive += time.Duration(s.rng.Int63() % int64(f.Jitter))
	}
	r := pfsRead{id: id, failed: f.ErrRate > 0 && s.rng.Float64() < f.ErrRate}
	if r.failed {
		s.failures++
	} else {
		s.nOps++
	}
	s.mu.Unlock()
	if r.failed {
		r.due = s.clk.deadline(arrive)
		return r, nil
	}
	// The bandwidth slot is booked now, for a transfer that arrives after
	// the latency and lag, so the read waits once for the whole delay.
	r.due = s.clk.deadline(s.throttle.reserve(float64(s.ds.Size(id))/(s.curve.PeakMBps*1e6), arrive))
	return r, nil
}

// deliver produces what a booked read returns once its deadline has
// passed: the payload, or ErrTransient for a failed read.
func (s *PFSStore) deliver(r pfsRead) ([]byte, error) {
	if r.failed {
		return nil, ErrTransient
	}
	// Payloads are regenerated into the size-classed pool; the data path
	// recycles them after decode when it still owns them (DESIGN.md §12).
	buf := preproc.GetPayloadBuf(int(s.ds.Size(r.id)))
	dataset.FillPayload(buf, s.seed, r.id)
	return buf, nil
}

// Ops returns the number of reads served.
func (s *PFSStore) Ops() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nOps
}

// Directory tracks which nodes hold which samples — the metadata of the
// distributed cache. Safe for concurrent use.
type Directory struct {
	mu      sync.Mutex
	holders []uint64 // bitmask of nodes per sample (supports <= 64 nodes)
}

// NewDirectory creates a directory for numSamples samples across at most
// 64 nodes.
func NewDirectory(numSamples, nodes int) (*Directory, error) {
	if nodes > 64 {
		return nil, fmt.Errorf("runtime: directory supports <= 64 nodes, got %d", nodes)
	}
	return &Directory{holders: make([]uint64, numSamples)}, nil
}

// Add records that node holds the sample.
func (d *Directory) Add(node int, id dataset.SampleID) {
	d.mu.Lock()
	d.holders[id] |= 1 << uint(node)
	d.mu.Unlock()
}

// Remove records that node dropped the sample.
func (d *Directory) Remove(node int, id dataset.SampleID) {
	d.mu.Lock()
	d.holders[id] &^= 1 << uint(node)
	d.mu.Unlock()
}

// Holder returns the lowest-numbered node holding the sample other than
// `not`, or -1.
func (d *Directory) Holder(id dataset.SampleID, not int) int {
	d.mu.Lock()
	mask := d.holders[id] &^ (1 << uint(not))
	d.mu.Unlock()
	if mask == 0 {
		return -1
	}
	return bits.TrailingZeros64(mask)
}

// HolderBatch fills out[i] with whether any node other than `not` holds
// ids[i], taking the directory lock once for the whole batch (the thread
// controller scans entire iteration batches per decision).
func (d *Directory) HolderBatch(ids []dataset.SampleID, not int, out []bool) {
	clear := ^(uint64(1) << uint(not))
	d.mu.Lock()
	for i, id := range ids {
		out[i] = d.holders[id]&clear != 0
	}
	d.mu.Unlock()
}

// IsLastCopy reports whether node holds the only copy.
func (d *Directory) IsLastCopy(node int, id dataset.SampleID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.holders[id] == 1<<uint(node)
}

// DistributionManager routes peer-cache reads between nodes — the MPI
// substitute. A read copies from the holder's cache directly and books
// the modeled interconnect delay, which the requester waits out.
type DistributionManager struct {
	// caches holds each node's cache, registered before the node's first
	// goroutine starts. A peer reads caches[n] only after the directory
	// named n as a holder, which n's first insert (after registration)
	// published under the directory's lock.
	caches []*nodeCache
	curve  tier.Curve
	scale  float64
	clk    clock
	// faults holds each node's serving fault: nil is healthy. Immutable
	// once published (setters swap whole states), except the seeded RNG,
	// which the jitter/error draws guard with the state's own mutex.
	faults []atomic.Pointer[peerFault]
}

// peerFault is one node's degraded serving state: down (crashed, every
// fetch from it times out empty), or a straggler profile (extra lag,
// jitter, and a flaky-fetch rate).
type peerFault struct {
	down    bool
	lag     time.Duration
	jitter  time.Duration
	errRate float64
	mu      sync.Mutex
	rng     *stats.RNG
}

func newDistributionManager(n int, curve tier.Curve, scale float64, clk clock) *DistributionManager {
	return &DistributionManager{
		caches: make([]*nodeCache, n),
		curve:  curve,
		scale:  scale,
		clk:    clk,
		faults: make([]atomic.Pointer[peerFault], n),
	}
}

// SetNodeFault applies a chaos straggler profile to node n's serving:
// every fetch from it pays Fault.Lag plus a draw from [0, Jitter), and
// Fault.ErrRate of fetches return empty (peer timeout). The down flag
// is preserved; a zero fault on a healthy node clears the state.
func (dm *DistributionManager) SetNodeFault(n int, f chaos.Fault) {
	prev := dm.faults[n].Load()
	down := prev != nil && prev.down
	if f.IsZero() && !down {
		dm.faults[n].Store(nil)
		return
	}
	dm.faults[n].Store(&peerFault{
		down:    down,
		lag:     f.Lag,
		jitter:  f.Jitter,
		errRate: f.ErrRate,
		rng:     stats.NewRNG(f.Seed),
	})
}

// SetNodeDown marks node n's peer serving crashed (every fetch times
// out empty, paying one op latency) or revives it. The straggler
// profile, if any, is preserved across the transition.
func (dm *DistributionManager) SetNodeDown(n int, down bool) {
	prev := dm.faults[n].Load()
	// A fresh RNG per transition keeps states self-contained (a shared
	// stream across two published states would race); the draw sequence
	// stays deterministic because transitions are schedule-driven.
	next := &peerFault{down: down, rng: stats.NewRNG(0)}
	if prev != nil {
		next.lag, next.jitter, next.errRate = prev.lag, prev.jitter, prev.errRate
	}
	if !down && next.lag == 0 && next.jitter == 0 && next.errRate == 0 {
		dm.faults[n].Store(nil)
		return
	}
	dm.faults[n].Store(next)
}

// NodeDown reports whether node n's peer serving is marked crashed.
func (dm *DistributionManager) NodeDown(n int) bool {
	pf := dm.faults[n].Load()
	return pf != nil && pf.down
}

// book asks `from` for a sample, paying interconnect latency + transfer:
// it returns the holder's copy, taken now, and when the fetch completes on
// the manager's clock; the caller waits for that deadline. The payload is
// a pooled copy of the holder's buffer — the caller owns it exclusively
// (DESIGN.md §12). A nil payload with evicted set means the peer served
// but no longer holds the sample: the holder evicted it after the
// directory named it (a benign race, the directory is advisory, exactly
// as in a real distributed cache), and answers so after one op latency,
// with no transfer. A nil payload without evicted is a broken promise:
// the peer is down, or the fetch failed.
func (dm *DistributionManager) book(from int, id dataset.SampleID, size int64) (payload []byte, evicted bool, due time.Time) {
	var extra time.Duration
	fail := false
	if pf := dm.faults[from].Load(); pf != nil {
		if pf.down {
			// Crashed peer: the requester pays one op latency (its
			// timeout) and gets nothing — the failover-to-PFS path.
			return nil, false, dm.clk.deadline(time.Duration(dm.curve.OpLatency * dm.scale * float64(time.Second)))
		}
		extra = pf.lag
		if pf.jitter > 0 || pf.errRate > 0 {
			pf.mu.Lock()
			if pf.jitter > 0 {
				extra += time.Duration(pf.rng.Int63() % int64(pf.jitter))
			}
			fail = pf.errRate > 0 && pf.rng.Float64() < pf.errRate
			pf.mu.Unlock()
		}
	}
	cost := dm.curve.OpLatency + float64(size)/(dm.curve.PeakMBps*1e6)
	if !fail {
		// The holder looks before it sends: what it no longer holds costs
		// the request's op latency, not the transfer.
		if payload = dm.caches[from].copyPayload(id); payload == nil {
			cost = dm.curve.OpLatency
		}
	}
	// Straggler lag/jitter are wall-clock (chaos faults do not scale
	// with TimeScale) on top of the modeled cost.
	due = dm.clk.deadline(time.Duration(cost*dm.scale*float64(time.Second)) + extra)
	return payload, !fail && payload == nil, due
}
