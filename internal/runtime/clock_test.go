package runtime

import (
	"context"
	"os"
	"reflect"
	goruntime "runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/preproc"
	"repro/internal/tier"
)

// fakeClock records every requested delay and returns at once. Its time
// advances by exactly what was slept, or to the deadline waited for when
// that is later, so nothing a test concludes from it depends on the
// scheduler or the wall clock. Slept and booked delays are recorded
// apart; a wait for a booked deadline is recorded as the time it moved
// the clock on.
type fakeClock struct {
	mu       sync.Mutex
	t        time.Time
	sleeps   []time.Duration
	bookings []time.Duration
	waits    []time.Duration
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1e9, 0)} }

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) sleep(d time.Duration) {
	f.mu.Lock()
	f.sleeps = append(f.sleeps, d)
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func (f *fakeClock) deadline(d time.Duration) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bookings = append(f.bookings, d)
	return f.t.Add(d)
}

func (f *fakeClock) until(t time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := max(t.Sub(f.t), 0)
	f.waits = append(f.waits, d)
	f.t = f.t.Add(d)
}

// takeWaits returns the waits for booked deadlines since the last call.
func (f *fakeClock) takeWaits() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.waits
	f.waits = nil
	return w
}

// takeBookings returns the delays booked since the last call.
func (f *fakeClock) takeBookings() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	b := f.bookings
	f.bookings = nil
	return b
}

// take returns the delays slept since the last call.
func (f *fakeClock) take() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.sleeps
	f.sleeps = nil
	return s
}

func scaled(seconds, scale float64) time.Duration {
	return time.Duration(seconds * scale * float64(time.Second))
}

func wantSleeps(t *testing.T, site string, clk *fakeClock, want ...time.Duration) {
	t.Helper()
	if got := clk.take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s slept %v, want %v", site, got, want)
	}
}

// wantBooked asserts that the delays booked since the last check are
// want, each waited for once and in full, and that nothing slept.
func wantBooked(t *testing.T, site string, clk *fakeClock, want ...time.Duration) {
	t.Helper()
	if got := clk.takeBookings(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s booked %v, want %v", site, got, want)
	}
	if got := clk.takeWaits(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s waited %v, want %v", site, got, want)
	}
	wantSleeps(t, site, clk)
}

// TestThrottleRequestsItsReservation: reserve waits for nothing and
// returns the wait until the end of its own slot, which starts where the
// previous one ends or when the transfer arrives, whichever is later.
func TestThrottleRequestsItsReservation(t *testing.T) {
	clk := newFakeClock()
	th := newThrottle(0.5, clk)
	for _, tc := range []struct {
		site  string
		after time.Duration
		want  time.Duration
	}{
		{"idle throttle", 0, 5 * time.Millisecond},
		{"busy throttle", 0, 10 * time.Millisecond},
		{"arrival past the queue", 20 * time.Millisecond, 25 * time.Millisecond},
	} {
		if got := th.reserve(0.01, tc.after); got != tc.want {
			t.Fatalf("%s: reserve returned %v, want %v", tc.site, got, tc.want)
		}
	}
	wantSleeps(t, "reserve", clk)
}

// TestThrottleQueuesArrivalsFIFO: slots go out in booking order, not in
// arrival order. A transfer booked with an arrival offset queues behind
// the slot outstanding when it was booked, even when it arrives before
// that slot's transfer does.
func TestThrottleQueuesArrivalsFIFO(t *testing.T) {
	clk := newFakeClock()
	th := newThrottle(1, clk)
	const ms = time.Millisecond
	// Booked first, arriving at 4 ms: holds the link from 4 to 14 ms.
	if got := th.reserve(0.010, 4*ms); got != 14*ms {
		t.Fatalf("first read completes after %v, want 14ms", got)
	}
	// Booked second, arriving at 2 ms: waits for the first slot, 14-17 ms.
	if got := th.reserve(0.003, 2*ms); got != 17*ms {
		t.Fatalf("earlier arrival booked later completes after %v, want 17ms", got)
	}
	// Booked third, 1 ms of the clock later, arriving inside the first
	// slot: behind both, 17-18 ms, which is 17 ms from its own booking.
	clk.sleep(ms)
	clk.take()
	if got := th.reserve(0.001, 5*ms); got != 17*ms {
		t.Fatalf("third read completes %v after booking, want 17ms", got)
	}
}

// TestPFSReadRequestsModeledDelays pins PFSStore.Read's formula: one
// booking per read, waited out in full, of the op latency at the store's
// scale, plus the brownout lag unscaled, plus the sample's slot of the
// shared bandwidth; a read that fails books its latency and lag only.
func TestPFSReadRequestsModeledDelays(t *testing.T) {
	ds, err := dataset.Generate(dataset.Spec{Name: "p", NumSamples: 10, MeanSize: 4 << 10, Classes: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.05
	curve := tier.ThetaGPULike().PFS
	clk := newFakeClock()
	store := newPFSStore(ds, 5, curve, scale, clk)
	op := scaled(curve.OpLatency, scale)
	slot := func(id dataset.SampleID) time.Duration {
		return scaled(float64(ds.Size(id))/(curve.PeakMBps*1e6), scale)
	}

	if _, err := store.Read(3); err != nil {
		t.Fatal(err)
	}
	wantBooked(t, "healthy read", clk, op+slot(3))

	store.SetFault(chaos.Fault{Lag: 7 * time.Millisecond})
	if _, err := store.Read(4); err != nil {
		t.Fatal(err)
	}
	wantBooked(t, "browned-out read", clk, op+7*time.Millisecond+slot(4))

	store.SetFault(chaos.Fault{Lag: 7 * time.Millisecond, ErrRate: 1, Seed: 9})
	if _, err := store.Read(4); err != ErrTransient {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	wantBooked(t, "failed read", clk, op+7*time.Millisecond)

	// Two reads booked before either completes: the second queues behind
	// the first's slot. Rewind the clock to the first read's booking.
	store.SetFault(chaos.Fault{})
	start := clk.now()
	for _, id := range []dataset.SampleID{5, 6} {
		if _, err := store.Read(id); err != nil {
			t.Fatal(err)
		}
		clk.t = start
	}
	wantBooked(t, "queued reads", clk, op+slot(5), op+slot(5)+slot(6))
}

// peerManager is a two-node distribution manager on clk with a node
// cache registered for each node; node 1's holds payload, a pooled
// buffer the cache recycles on eviction, as sample 0.
func peerManager(t *testing.T, scale float64, clk clock, payload []byte) *DistributionManager {
	t.Helper()
	dir, err := NewDirectory(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	dm := newDistributionManager(2, tier.ThetaGPULike().Remote, scale, clk)
	for n := range dm.caches {
		if dm.caches[n], err = newNodeCache(n, 1, 1<<20, cache.NewLRU(), dir); err != nil {
			t.Fatal(err)
		}
	}
	dm.caches[1].put(0, payload, 0, false)
	return dm
}

// fetchPeer books a peer fetch and waits for its deadline, as a loading
// worker does.
func fetchPeer(dm *DistributionManager, from int, id dataset.SampleID, size int64) (payload []byte, evicted bool) {
	payload, evicted, due := dm.book(from, id, size)
	dm.clk.until(due)
	return payload, evicted
}

// TestFetchRequestsModeledDelays pins DistributionManager.book plus its
// wait: a copy
// of the holder's bytes and one booking of cost x scale plus the
// straggler's unscaled lag; a down peer, and a holder that no longer
// holds the sample, cost the requester one op latency.
func TestFetchRequestsModeledDelays(t *testing.T) {
	const scale = 0.05
	const size = 8 << 10
	curve := tier.ThetaGPULike().Remote
	clk := newFakeClock()
	payload := preproc.GetPayloadBuf(size)
	dataset.FillPayload(payload, 5, 0)
	dm := peerManager(t, scale, clk, payload)
	cost := scaled(curve.OpLatency+size/(curve.PeakMBps*1e6), scale)

	got, evicted := fetchPeer(dm, 1, 0, size)
	wantBooked(t, "healthy fetch", clk, cost)
	if evicted {
		t.Fatal("healthy fetch of a resident sample reports it evicted")
	}
	if err := dataset.VerifyPayload(got, 5, 0); err != nil || unsafe.SliceData(got) == unsafe.SliceData(payload) {
		t.Fatalf("fetch delivered %v (aliasing the holder's buffer: %v), want a copy of sample 0",
			err, unsafe.SliceData(got) == unsafe.SliceData(payload))
	}

	dm.SetNodeFault(1, chaos.Fault{Lag: 3 * time.Millisecond})
	fetchPeer(dm, 1, 0, size)
	wantBooked(t, "straggler fetch", clk, cost+3*time.Millisecond)

	dm.SetNodeDown(1, true)
	if p, evicted := fetchPeer(dm, 1, 0, size); p != nil || evicted {
		t.Fatalf("down peer delivered %d bytes (evicted %v), want a broken promise", len(p), evicted)
	}
	wantBooked(t, "down-peer fetch", clk, scaled(curve.OpLatency, scale))

	// A holder that evicted the sample after the directory named it
	// answers after one op latency (a straggler's after its lag too) and
	// reports the race, not a broken promise.
	dm.SetNodeDown(1, false)
	dm.caches[1].crash()
	for _, lag := range []time.Duration{3 * time.Millisecond, 0} {
		dm.SetNodeFault(1, chaos.Fault{Lag: lag})
		if p, evicted := fetchPeer(dm, 1, 0, size); p != nil || !evicted {
			t.Fatalf("evicted sample: fetch delivered %d bytes (evicted %v), want nil and evicted", len(p), evicted)
		}
		wantBooked(t, "evicted-sample fetch", clk, scaled(curve.OpLatency, scale)+lag)
	}

	// A flaky fetch fails after the whole transfer, even from a holder
	// that no longer holds the sample.
	dm.SetNodeFault(1, chaos.Fault{ErrRate: 1})
	if p, evicted := fetchPeer(dm, 1, 0, size); p != nil || evicted {
		t.Fatalf("failed fetch delivered %d bytes (evicted %v), want a broken promise", len(p), evicted)
	}
	wantBooked(t, "failed fetch", clk, cost)
}

// TestRunRequestsModeledDelays runs two epochs on the fake clock — no
// modeled delay elapses, the run is otherwise the real one — and counts
// the requests by site: every rank sleeps IterTime x TimeScale once per
// iteration, and every PFS read, failed or not, books exactly one delay
// of at least its op latency plus its bandwidth slot, whether a loading
// worker waits for it alone or the prefetch loop waits for it together
// with its other slots. Peer fetches (150 µs x TimeScale) are shorter
// than the PFS op latency (4 ms x TimeScale), so the bookings that long
// are the reads; nothing but the train step sleeps.
func TestRunRequestsModeledDelays(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 2, 2)
	opts.Model.IterTime = 0.003 // apart from the PFS op latency (0.004)
	clk := newFakeClock()
	stats, err := run(context.Background(), opts, clk)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	step := scaled(opts.Model.IterTime, opts.TimeScale)
	pfs := opts.Topology.Hierarchy.PFS
	op := scaled(pfs.OpLatency, opts.TimeScale)
	smallest := opts.Dataset.Size(0)
	for id := 1; id < opts.Dataset.Len(); id++ {
		smallest = min(smallest, opts.Dataset.Size(dataset.SampleID(id)))
	}
	minRead := op + scaled(float64(smallest)/(pfs.PeakMBps*1e6), opts.TimeScale)
	steps := 0
	for _, d := range clk.take() {
		if d != step {
			t.Errorf("a sleep of %v requested; only the train step (%v) sleeps", d, step)
		}
		steps++
	}
	reads := 0
	for _, d := range clk.takeBookings() {
		if d >= op {
			reads++
			if d < minRead {
				t.Errorf("a PFS read booked %v, below op latency plus the smallest slot (%v)", d, minRead)
			}
		}
	}
	if want := stats.Iterations * opts.Topology.WorldSize(); steps != want {
		t.Errorf("%d train steps of %v requested, want %d", steps, step, want)
	}
	if want := int(stats.PFSReads + stats.PFSRetries); reads != want || want == 0 {
		t.Errorf("%d PFS read bookings of at least %v, want one per read: %d", reads, op, want)
	}
}

// TestWakeupsArming drives the deadline heap with a recording timer.
func TestWakeupsArming(t *testing.T) {
	var armed []int64
	w := &wakeups{settime: func(rel int64) { armed = append(armed, rel) }}
	slack := int64(wakeSlack)
	check := func(step string, want ...int64) {
		t.Helper()
		if !reflect.DeepEqual(armed, want) {
			t.Fatalf("%s: timer set to %v, want %v", step, armed, want)
		}
		armed = nil
	}

	w.add(1000, 100)
	check("first deadline arms", 900+slack)
	w.add(2000, 150)
	check("later deadline leaves the timer alone")
	w.add(500, 200)
	check("earlier deadline re-arms", 300+slack)
	w.add(3000, 250)
	w.add(1000, 260)
	check("still later")

	// The timer fires for 500; by the time the reader runs, both 500 and
	// the two 1000s have passed.
	w.expire(1200)
	check("expired entries popped, next one armed", 800+slack)
	if len(w.pending) != 2 || w.pending[0] != 2000 || w.armed != 2000 {
		t.Fatalf("pending %v armed %d after expire, want [2000 3000] armed 2000", w.pending, w.armed)
	}
	w.expire(5000)
	check("empty heap leaves the fired timer disarmed")
	if len(w.pending) != 0 || w.armed != 0 {
		t.Fatalf("pending %v armed %d after the last expire, want none", w.pending, w.armed)
	}
	w.add(6000, 5500)
	check("arms again after running empty", 500+slack)

	w.close()
	w.add(5600, 5550)
	w.expire(7000)
	check("closed: timer untouched")
}

// TestWakeupsHeapOrder pops a shuffled set of deadlines in order.
func TestWakeupsHeapOrder(t *testing.T) {
	w := &wakeups{settime: func(int64) {}}
	for i := int64(0); i < 200; i++ {
		w.add(1+(i*7919)%200, 0)
	}
	for want := int64(1); want <= 200; want++ {
		if got := w.pending[0]; got != want {
			t.Fatalf("heap top %d, want %d", got, want)
		}
		w.pop()
	}
}

// TestWallClockConcurrentSleepers has 32 goroutines sleep at once on one
// wall clock (run under -race -count=10). A sleep may return late but
// never early, and the clock must stop cleanly afterwards.
func TestWallClockConcurrentSleepers(t *testing.T) {
	c := newWallClock(nil)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				d := time.Duration(1+(i*20+j)%97) * 10 * time.Microsecond
				start := time.Now()
				c.sleep(d)
				if got := time.Since(start); got < d {
					t.Errorf("sleep(%v) returned after %v", d, got)
				}
			}
		}(i)
	}
	wg.Wait()
	c.stop()
	c.sleep(time.Microsecond) // a late sleeper still returns
}

// openDescriptors counts the process's open file descriptors; ok is
// false where /proc does not say.
func openDescriptors() (n int, ok bool) {
	entries, err := os.ReadDir("/proc/self/fd")
	return len(entries), err == nil
}

// TestRunReleasesClock: a run's clock owns a goroutine and, on linux, a
// descriptor. Both must be gone when RunContext returns — after a
// complete run, a cancelled one and a failed build — along with every
// other goroutine of the run, prefetch loops and loading workers that
// were staging ahead included, and with no claim, busy read slot or peer
// copy of theirs left on a node.
func TestRunReleasesClock(t *testing.T) {
	defaultClock() // started once per process, on purpose: keep it out of the count
	baseG := goruntime.NumGoroutine()
	baseFD, fdOK := openDescriptors()
	nodes := captureNodes(t)
	check := func(step string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for goruntime.NumGoroutine() > baseG {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before", step, goruntime.NumGoroutine(), baseG)
			}
			time.Sleep(time.Millisecond)
		}
		if n, _ := openDescriptors(); fdOK && n != baseFD {
			t.Fatalf("%s: %d open descriptors, %d before", step, n, baseFD)
		}
	}

	opts := testOptions(t, loader.Lobster(), 2, 1)
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	check("complete run")
	checkOracle(t, opts, stats)
	checkTeardown(t, "complete run", *nodes)
	*nodes = nil

	ctx, cancel := context.WithCancel(context.Background())
	opts = testOptions(t, loader.Lobster(), 2, 50)
	opts.OnProgress = func(p Progress) {
		if p.Iteration == 3 {
			cancel()
		}
	}
	if _, err := RunContext(ctx, opts); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	check("cancelled run")
	checkTeardown(t, "cancelled run", *nodes)

	opts = testOptions(t, loader.Lobster(), 2, 1)
	opts.Model.IterTime = 0 // fails in the thread manager, after the clock started
	if _, err := Run(opts); err == nil {
		t.Fatal("zero iteration time accepted")
	}
	check("failed build")

	// A build that fails after its nodes started tears down as build's
	// own failure path does: with the prefetch loops' reads in flight.
	*nodes = nil
	if _, cleanup, err := build(testOptions(t, loader.NoPFS(2, 8), 2, 1), nil); err != nil {
		t.Fatal(err)
	} else {
		cleanup()
	}
	check("build failed after its nodes started")
	checkTeardown(t, "build failed after its nodes started", *nodes)
}
