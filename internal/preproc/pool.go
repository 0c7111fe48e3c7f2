package preproc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/stats"
)

// PayloadOwner is implemented by payload lessors (the runtime's node
// cache): a worker calls ReleasePayload exactly once per leased job,
// after decode, with the job's ID and payload, to tell the owner the data
// path no longer reads the buffer. The owner may then recycle it —
// immediately if it was evicted in the meantime, or whenever it
// eventually is (DESIGN.md §12).
type PayloadOwner interface {
	ReleasePayload(id dataset.SampleID, p []byte)
}

// Job is one preprocessing work item: a raw payload to decode and augment.
type Job struct {
	ID      dataset.SampleID
	Payload []byte
	Seed    uint64
	// Comp and Slot deliver the result: the worker writes it into Comp's
	// slot Slot, and the batch's consumer is woken once, by the last slot
	// (see Completion).
	Comp *Completion
	Slot int
	// Owned marks Payload as exclusively owned by the data path: no
	// cache retains it and no peer can still read it, so the worker
	// recycles it into the payload pool after decoding (DESIGN.md §12
	// ownership rules).
	Owned bool
	// Owner, when non-nil, marks Payload as leased from a cache that
	// still retains it: the worker must not recycle it, but releases the
	// lease after decode so the owner can recycle it upon eviction.
	// Mutually exclusive with Owned.
	Owner PayloadOwner
	// Ctx attributes the job to the (rank, epoch, iter) that will
	// consume its tensor; the zero value means unattributed. Stamped on
	// the job's trace span and handed to Instruments.QueueWait.
	Ctx obs.TraceCtx
	// EnqueuedAt, when non-zero, timestamps the job's submission so the
	// worker can report how long it sat queued (Instruments.QueueWait).
	// Callers set it only while attribution is being recorded, keeping
	// the disabled path free of clock reads.
	EnqueuedAt time.Time
}

// jobBlockCap is how many jobs one internal queue slot carries.
// SubmitBatch packs jobs into blocks of this size, cutting channel
// operations per batch by the same factor while keeping blocks small
// enough that a batch still spreads across workers.
const jobBlockCap = 4

// jobBlock is one message on the pool's queue: up to jobBlockCap jobs,
// inlined so SubmitBatch can hand a caller's scratch slice to the pool
// by value — the caller may reuse its slice the moment SubmitBatch
// returns, with no per-block heap allocation.
type jobBlock struct {
	n    int
	jobs [jobBlockCap]Job
}

// Result is the outcome of a Job.
type Result struct {
	Tensor *Tensor
	Err    error
}

// Pool is a resizable preprocessing worker pool. Lobster's thread manager
// grows and shrinks it at runtime ("take away one thread from the
// preprocessing stage and make it available for data loading",
// Section 4.1); Resize is safe to call concurrently with SubmitBatch.
type Pool struct {
	jobs chan jobBlock
	crew *Crew

	processed atomic.Uint64

	// ins is the optional live instrumentation (SetInstruments); an
	// atomic pointer so attaching mid-run cannot race the workers. The
	// nil fast path costs one pointer load per job.
	ins atomic.Pointer[Instruments]
	// fault is the injected per-job decode delay (SetDecodeDelay; nil =
	// none) — the slow-decode-worker fault of the chaos harness.
	fault atomic.Pointer[decodeFault]
}

// Instruments is the pool's optional observability hookup. JobSeconds
// gets one observation per preprocessing job; Trace (with TraceLabel as
// the track-name prefix) gets one "preproc" span per job on a
// per-worker track. Attach with SetInstruments before or during a run.
type Instruments struct {
	JobSeconds *obs.Histogram
	Trace      *obs.TraceRing
	TraceLabel string
	// QueueWait, when non-nil, receives each job's queue wait — worker
	// pickup minus Job.EnqueuedAt — with the job's trace context. The
	// runtime feeds it into the stall ledger as the decode-wait cause.
	// Jobs without an EnqueuedAt stamp are skipped.
	QueueWait func(ctx obs.TraceCtx, wait time.Duration)
}

// active reports whether recording would do anything right now — the
// pre-check that keeps the disabled path free of clock reads.
func (ins *Instruments) active() bool {
	return ins != nil && (ins.Trace != nil || ins.JobSeconds.On())
}

// SetInstruments attaches (or replaces, or with nil detaches) the
// pool's instrumentation. Safe to call concurrently with SubmitBatch.
func (p *Pool) SetInstruments(ins *Instruments) { p.ins.Store(ins) }

// QueueLen returns the number of jobs waiting in the queue (for
// scrape-time gauge callbacks).
func (p *Pool) QueueLen() int { return len(p.jobs) }

// NewPool starts a pool with the given number of workers.
func NewPool(workers, queueDepth int) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("preproc: workers %d < 1", workers)
	}
	if queueDepth < 1 {
		return nil, fmt.Errorf("preproc: queueDepth %d < 1", queueDepth)
	}
	p := &Pool{jobs: make(chan jobBlock, queueDepth)}
	p.crew = NewCrew("worker", p.worker)
	p.crew.Resize(workers)
	return p, nil
}

func (p *Pool) worker() {
	var tid int64
	defer func() { p.crew.PutTID(tid) }()
	for !p.crew.ClaimStopDebt() {
		select {
		case <-p.crew.Stops():
			return
		case blk, ok := <-p.jobs:
			if !ok {
				return
			}
			ins := p.ins.Load()
			if tid == 0 && ins != nil && ins.Trace != nil {
				tid = p.crew.TakeTID(ins.Trace, ins.TraceLabel)
			}
			for i := 0; i < blk.n; i++ {
				p.run(blk.jobs[i], ins, tid)
			}
		}
	}
}

// decodeFault is the injected per-job decode delay: a fixed lag plus a
// uniform jitter in [0, jitter) drawn from a seeded RNG, so chaos runs
// replay identically. Installed whole-sale behind an atomic pointer;
// the healthy fast path costs one pointer load per job.
type decodeFault struct {
	lag, jitter time.Duration
	mu          sync.Mutex
	rng         *stats.RNG
}

func (f *decodeFault) sleep() {
	d := f.lag
	if f.jitter > 0 {
		f.mu.Lock()
		d += time.Duration(f.rng.Int63() % int64(f.jitter))
		f.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// SetDecodeDelay injects an artificial per-job decode delay: lag fixed,
// plus a uniform draw in [0, jitter) from an RNG seeded with seed (0
// picks a fixed default, so even unseeded delays are deterministic).
// Zero lag and jitter clear the fault. Safe to call while jobs flow —
// this is the slow-decode-worker hook of the chaos harness.
func (p *Pool) SetDecodeDelay(lag, jitter time.Duration, seed uint64) {
	if lag <= 0 && jitter <= 0 {
		p.fault.Store(nil)
		return
	}
	if seed == 0 {
		seed = 0xdec0de
	}
	p.fault.Store(&decodeFault{lag: lag, jitter: jitter, rng: stats.NewRNG(seed)})
}

func (p *Pool) run(job Job, ins *Instruments, tid int64) {
	var start time.Time
	rec := ins.active()
	if rec {
		start = time.Now()
		if ins.QueueWait != nil && !job.EnqueuedAt.IsZero() {
			ins.QueueWait(job.Ctx, start.Sub(job.EnqueuedAt))
		}
	}
	if f := p.fault.Load(); f != nil {
		f.sleep()
	}
	t, err := decodeAugment(job.Payload, job.ID, job.Seed)
	// The decode copied the bytes out; the data path's read of the payload
	// ends here. Owned buffers are recycled on the spot; leased ones are
	// handed back to their owner, which recycles them at eviction time.
	if job.Owner != nil {
		job.Owner.ReleasePayload(job.ID, job.Payload)
	} else if job.Owned {
		PutPayloadBuf(job.Payload)
	}
	p.processed.Add(1)
	if rec {
		d := time.Since(start)
		ins.JobSeconds.Observe(d.Seconds())
		if ins.Trace != nil && tid != 0 {
			if job.Ctx.Valid() {
				ins.Trace.SpanArgs("preproc", "cpu", tid, start, d,
					"rank", int64(job.Ctx.Rank()), "iter", job.Ctx.Iter())
			} else {
				ins.Trace.Span("preproc", "cpu", tid, start, d)
			}
		}
	}
	job.Comp.complete(job.Slot, Result{Tensor: t, Err: err})
}

// SubmitBatch enqueues a slice of jobs in blocks of up to jobBlockCap —
// one channel send per block instead of one per job. Jobs are copied
// into the queue, so the caller may reuse its slice the moment
// SubmitBatch returns. It blocks while the queue is full; submitting to a
// closed pool panics (it is a caller sequencing bug).
//
//lint:hotpath one call per loaded chunk on the batched data path; TestBatchedSteadyStateDoesNotAllocate pins 0 allocs/op
func (p *Pool) SubmitBatch(jobs []Job) {
	for len(jobs) > 0 {
		var b jobBlock
		b.n = copy(b.jobs[:], jobs)
		jobs = jobs[b.n:]
		p.jobs <- b
	}
}

// Resize sets the desired worker count. Shrinking takes effect as workers
// finish their current job.
func (p *Pool) Resize(n int) error {
	if n < 1 {
		return fmt.Errorf("preproc: Resize to %d < 1", n)
	}
	if !p.crew.Resize(n) {
		return fmt.Errorf("preproc: Resize after Close")
	}
	return nil
}

// Workers returns the current desired worker count.
func (p *Pool) Workers() int { return p.crew.Size() }

// Processed returns the number of jobs completed.
func (p *Pool) Processed() uint64 { return p.processed.Load() }

// Close drains the pool: no further SubmitBatch calls are allowed; it
// blocks until all workers exit.
func (p *Pool) Close() {
	if p.crew.Close() {
		close(p.jobs)
		p.crew.Wait()
	}
}
