package runtime

import (
	goruntime "runtime"
	"sync"
	"time"

	"repro/internal/obs"
)

// clock is where the package's modeled delays elapse: a PFS read's op
// latency, brownout lag and bandwidth slot (one booking per read), the
// peer fetch cost, and the train step. Every one of them is a duration
// the model computed, so how faithfully it elapses is the run's model
// error (DESIGN.md §15), and a test that substitutes the clock sees
// exactly the durations the model asked for. Every delay is booked
// (deadline) and waited for later (until): a read on its own goroutine
// or together with the other reads of a node's prefetch loop, a train
// step by the barrier, once for the latest of the iteration's ranks. So
// one wait may end many booked delays. A delay may be booked as started
// before now: a prefetch loop's slot, or a loading worker reading a
// chunk, starts its next read where its last one ended, and a rank's
// compute starts at the later of the release and its batch being whole,
// not where the late wake-up found them. Delays that are wall-clock by
// definition stay off the clock: the retry backoff of a failed PFS read
// (1 ms and up) and the chaos harness's slow-decode fault
// (preproc.Pool.SetDecodeDelay).
type clock interface {
	now() time.Time
	// deadline books a modeled delay of d that started early before now
	// (0: it starts now) and returns when it ends.
	deadline(early, d time.Duration) time.Time
	// until waits until t, a deadline booked earlier.
	until(t time.Time)
	// untilRelease is until for the barrier's train wait, the one wait
	// every rank's next step follows (DESIGN.md §15).
	untilRelease(t time.Time)
}

// wallClock waits in real time. A waiter waits on a Go timer (but for a
// short train wait, untilRelease), which is precise and nearly free
// while any P is running goroutines. With every P idle the Go scheduler
// parks in epoll_wait, whose timeout has millisecond granularity, and a
// 200 µs wait returns after 1.1 ms; so where the platform offers one
// (newWakeTimer) the clock also keeps a kernel timer armed for the
// earliest pending deadline, registered with the netpoller, and an idle
// scheduler wakes on time to find the Go timer already expired.
type wallClock struct {
	wake *wakeups // nil: Go timers alone
	// stop releases the kernel timer and waits for its reader. Waits
	// that start afterwards are on Go timers alone.
	stop      func()
	overshoot *obs.Histogram
}

// newWallClock starts a clock. overshoot, when recording, observes
// how late every wait returned, in seconds past its deadline; nil is
// fine.
func newWallClock(overshoot *obs.Histogram) *wallClock {
	c := &wallClock{overshoot: overshoot}
	c.wake, c.stop = newWakeTimer()
	return c
}

// defaultClock serves the stores built through the exported
// constructors, outside a run (layer benchmarks, tests): one clock for
// the process, started on first use and never stopped, so a standalone
// PFSStore waits through the same mechanism a run's does.
var defaultClock = sync.OnceValue(func() clock { return newWallClock(nil) })

func (c *wallClock) now() time.Time { return time.Now() }

func (c *wallClock) deadline(early, d time.Duration) time.Time { return time.Now().Add(d - early) }

// until observes every wait, also one whose deadline had passed when it
// began: the barrier's bookkeeping can outlast the compute it overlaps,
// and then the release is late by that much.
func (c *wallClock) until(t time.Time) {
	if d := time.Until(t); d > 0 {
		if c.wake != nil {
			now := monotonic()
			c.wake.add(now+int64(d), now)
		}
		time.Sleep(d)
	}
	c.observe(t)
}

// untilRelease does not park for a wait shorter than spinBelow: it
// yields its P until the deadline. The ranks have just dispatched their
// next batches, so the decoders they readied are runnable on that P;
// parked, the barrier would leave them to a thread the scheduler has to
// wake, and be woken itself, and waking a thread the OS descheduled
// costs tens of µs on a VM, more than the wait.
func (c *wallClock) untilRelease(t time.Time) {
	if d := time.Until(t); d <= 0 || d >= spinBelow {
		c.until(t)
		return
	}
	for time.Now().Before(t) {
		goruntime.Gosched()
	}
	c.observe(t)
}

// spinBelow is the longest train wait untilRelease yields through rather
// than parks for.
const spinBelow = 20 * time.Microsecond

// observe records how late a wait for t returned.
func (c *wallClock) observe(t time.Time) {
	if c.overshoot.On() {
		c.overshoot.Observe(time.Since(t).Seconds())
	}
}

var clockEpoch = time.Now()

// monotonic is nanoseconds since process start on the monotonic clock,
// the time base of wakeups' deadlines.
func monotonic() int64 { return int64(time.Since(clockEpoch)) }

// wakeSlack is how far past a deadline the kernel timer fires. The Go
// timer of the same wait is set a moment after the deadline was
// computed; a wake-up that beat it would find nothing runnable and send
// the scheduler back into a millisecond epoll_wait.
const wakeSlack = 10 * time.Microsecond

// wakeups tracks the deadlines of the waits in progress and keeps one
// one-shot timer armed for the earliest. Waiters add their deadline and
// never remove it; the timer's reader calls expire each time it fires.
type wakeups struct {
	mu      sync.Mutex
	pending []int64 // min-heap of deadlines, monotonic ns
	armed   int64   // the deadline the timer is armed for; 0 = not armed
	// settime arms the timer to fire rel nanoseconds from now, replacing
	// any earlier setting. nil once closed.
	settime func(rel int64)
}

// add records a wait ending at deadline and re-arms the timer when no
// earlier deadline is armed already.
func (w *wakeups) add(deadline, now int64) {
	w.mu.Lock()
	if w.settime != nil {
		w.push(deadline)
		if w.armed == 0 || deadline < w.armed {
			w.arm(deadline, now)
		}
	}
	w.mu.Unlock()
}

// expire runs after the timer fired: it drops the deadlines that have
// passed and arms the timer for the earliest one left. A timer that
// fired is not armed any more, so with nothing left there is nothing to
// undo.
func (w *wakeups) expire(now int64) {
	w.mu.Lock()
	for len(w.pending) > 0 && w.pending[0] <= now {
		w.pop()
	}
	w.armed = 0
	if len(w.pending) > 0 && w.settime != nil {
		w.arm(w.pending[0], now)
	}
	w.mu.Unlock()
}

func (w *wakeups) arm(deadline, now int64) {
	w.armed = deadline
	w.settime(deadline - now + int64(wakeSlack))
}

// close detaches the timer: later adds and expires leave it alone.
func (w *wakeups) close() {
	w.mu.Lock()
	w.settime = nil
	w.mu.Unlock()
}

func (w *wakeups) push(v int64) {
	h := append(w.pending, v)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	w.pending = h
}

func (w *wakeups) pop() {
	h := w.pending
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		child := 2*i + 1
		if child >= last {
			break
		}
		if child+1 < last && h[child+1] < h[child] {
			child++
		}
		if h[i] <= h[child] {
			break
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
	w.pending = h
}
