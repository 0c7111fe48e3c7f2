package preproc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// crewStopsCap bounds a crew's stop-token channel. Overflow past it goes
// to stop debt, so the bound affects only how promptly *idle* workers
// learn about a shrink — never whether Resize can block (it cannot).
const crewStopsCap = 256

// Crew is a resizable set of identical worker goroutines: the flexible
// thread pool of Section 4.1, which the thread manager grows and shrinks
// every iteration. The preprocessing Pool and the runtime's per-GPU
// loading queues each run one.
//
// A worker's loop is its owner's, and follows one protocol: at the top of
// every turn it calls ClaimStopDebt and exits on true; while it waits for
// work it also selects on Stops and exits on a token. Resize delivers one
// stop per worker it retires, as a token when the channel has room and as
// debt otherwise, and never blocks. A grow cancels pending debt before it
// starts a goroutine, keeping a running worker instead of starting one
// whose sibling is about to retire.
type Crew struct {
	work  func() // one worker's loop
	track string // trace track kind: "<prefix>/<track><k>"

	mu     sync.Mutex
	target int
	closed bool
	stops  chan struct{}
	wg     sync.WaitGroup

	// stopDebt holds stop requests that did not fit in stops (a resize
	// storm can outrun token delivery).
	stopDebt atomic.Int64

	// tidFree recycles trace track IDs across worker generations, so a
	// controller resizing every iteration does not mint unbounded tracks.
	tidMu   sync.Mutex
	tidFree []int64
	tidSeq  int
}

// NewCrew returns a crew with no workers; Resize starts them. Each worker
// runs work, which returns when the worker retires. track names the
// workers' trace tracks (see TakeTID).
func NewCrew(track string, work func()) *Crew {
	return &Crew{work: work, track: track, stops: make(chan struct{}, crewStopsCap)}
}

// Resize sets the desired worker count: a grow starts workers at once, a
// shrink takes effect as workers reach the top of their loop or wait for
// work. It reports false, and changes nothing, after Close.
func (c *Crew) Resize(n int) bool {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	for c.target < n {
		c.target++
		if c.ClaimStopDebt() {
			continue
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.work()
		}()
	}
	shrink := 0
	if c.target > n {
		shrink, c.target = c.target-n, n
	}
	c.mu.Unlock()
	// Deliver stop tokens after releasing the lock, and never block on
	// them: overflow past the channel bound becomes debt.
	for ; shrink > 0; shrink-- {
		select {
		case c.stops <- struct{}{}:
		default:
			c.stopDebt.Add(1)
		}
	}
	return true
}

// Size returns the desired worker count.
func (c *Crew) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.target
}

// Stops is the stop-token channel: a worker that receives from it exits.
func (c *Crew) Stops() <-chan struct{} { return c.stops }

// ClaimStopDebt consumes one overflowed stop request, if any; a worker
// that gets true exits.
func (c *Crew) ClaimStopDebt() bool {
	for {
		d := c.stopDebt.Load()
		if d <= 0 {
			return false
		}
		if c.stopDebt.CompareAndSwap(d, d-1) {
			return true
		}
	}
}

// Close makes every later Resize a no-op and reports whether this call
// closed the crew. The owner then ends its workers (closing their work
// channel) and calls Wait.
func (c *Crew) Close() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	first := !c.closed
	c.closed = true
	return first
}

// Wait blocks until every worker started so far has exited.
func (c *Crew) Wait() { c.wg.Wait() }

// TakeTID leases a trace track for one worker, named
// "<prefix>/<track><k>", reusing returned IDs before minting new ones.
// The worker hands it back with PutTID when it exits.
func (c *Crew) TakeTID(tr *obs.TraceRing, prefix string) int64 {
	c.tidMu.Lock()
	if n := len(c.tidFree); n > 0 {
		tid := c.tidFree[n-1]
		c.tidFree = c.tidFree[:n-1]
		c.tidMu.Unlock()
		return tid
	}
	c.tidSeq++
	seq := c.tidSeq
	c.tidMu.Unlock()
	return tr.NewThread(fmt.Sprintf("%s/%s%d", prefix, c.track, seq))
}

// PutTID returns a worker's trace track; zero (never leased) is a no-op.
func (c *Crew) PutTID(tid int64) {
	if tid == 0 {
		return
	}
	c.tidMu.Lock()
	c.tidFree = append(c.tidFree, tid)
	c.tidMu.Unlock()
}
