package runtime

import (
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/dataset"
)

// leaseSize is the payload size of the lease tests' node caches.
const leaseSize = 64

// leaseCache is a node cache over samples ids whose capacity holds slots
// payloads of leaseSize bytes. Its recycled buffers are counted, by base
// pointer, in the returned map, and poisoned, so a decode still reading
// one would see it change (and the race detector the write).
func leaseCache(t *testing.T, samples, slots int) (*nodeCache, func() map[*byte]int) {
	t.Helper()
	dir, err := NewDirectory(samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := newNodeCache(0, samples, int64(slots*leaseSize), cache.NewLRU(), dir)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	recycled := map[*byte]int{}
	nc.recycle = func(b []byte) {
		for i := range b {
			b[i] = 0xff
		}
		mu.Lock()
		recycled[unsafe.SliceData(b)]++
		mu.Unlock()
	}
	return nc, func() map[*byte]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[*byte]int, len(recycled))
		for k, v := range recycled {
			out[k] = v
		}
		return out
	}
}

// leaseBuf is a payload of sample id for a leaseCache, whose recycle
// keeps it out of the payload pool.
func leaseBuf(id dataset.SampleID) []byte {
	b := make([]byte, leaseSize)
	for i := range b {
		b[i] = byte(id)
	}
	return b
}

func base(b []byte) *byte { return unsafe.SliceData(b) }

// wantRecycled checks that exactly the given buffers were recycled, each
// once.
func wantRecycled(t *testing.T, step string, got map[*byte]int, bufs ...[]byte) {
	t.Helper()
	if len(got) != len(bufs) {
		t.Fatalf("%s: %d buffers recycled, want %d", step, len(got), len(bufs))
	}
	for i, b := range bufs {
		if n := got[base(b)]; n != 1 {
			t.Fatalf("%s: buffer %d recycled %d times, want once", step, i, n)
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestLeaseEvictedBufferRecycledOnce: a buffer evicted while leased
// parks as a zombie and is recycled exactly once, with its last release
// — also when its id was re-inserted into a new buffer and leased
// again first, so that releases of the old and the new buffer of one id
// interleave. A release beyond the last lease is refused, not recycled
// twice.
func TestLeaseEvictedBufferRecycledOnce(t *testing.T) {
	nc, recycled := leaseCache(t, 2, 1)
	a, x, b := leaseBuf(0), leaseBuf(1), leaseBuf(0)

	nc.put(0, a, 0, false)
	for i := 0; i < 2; i++ {
		if p, ok := nc.get(0, 0); !ok || base(p) != base(a) {
			t.Fatalf("get %d of sample 0: ok=%v", i, ok)
		}
	}
	nc.put(1, x, 0, false) // evicts 0 with two leases out
	wantRecycled(t, "evicted while leased", recycled())
	if len(nc.zombies) != 1 || nc.zombies[base(a)].leases != 2 {
		t.Fatalf("zombies %v, want buffer a with 2 leases", nc.zombies)
	}

	// Sample 0 comes back in buffer b, leased at insert and once more.
	if ok, retained := nc.put(0, b, 0, true); !ok || !retained {
		t.Fatalf("re-insert of sample 0: ok=%v retained=%v", ok, retained)
	}
	wantRecycled(t, "unleased x evicted", recycled(), x)
	if p, _ := nc.get(0, 0); base(p) != base(b) || nc.entries[0].leases != 2 {
		t.Fatalf("sample 0's new buffer: entry %+v, want buffer b with 2 leases", nc.entries[0])
	}

	nc.ReleasePayload(0, b)
	nc.ReleasePayload(0, a)
	nc.ReleasePayload(0, b)
	wantRecycled(t, "one lease left on a", recycled(), x)
	if nc.entries[0].leases != 0 || base(nc.entries[0].b) != base(b) {
		t.Fatalf("entry 0 is %+v, want buffer b with no lease", nc.entries[0])
	}
	nc.ReleasePayload(0, a)
	wantRecycled(t, "last lease on a released", recycled(), x, a)
	if len(nc.zombies) != 0 {
		t.Fatalf("%d zombies after the last release", len(nc.zombies))
	}
	mustPanic(t, "a release with no lease out", func() { nc.ReleasePayload(0, a) })
	wantRecycled(t, "extra release", recycled(), x, a)

	nc.put(1, leaseBuf(1), 0, false) // evicts 0, unleased now
	wantRecycled(t, "b evicted unleased", recycled(), x, a, b)
}

// TestLeaseCrashParksLeasedBuffers: a crash drops every entry at once;
// the unleased buffers are recycled on the spot, the leased ones park as
// zombies until their decodes release them.
func TestLeaseCrashParksLeasedBuffers(t *testing.T) {
	nc, recycled := leaseCache(t, 4, 4)
	a, b := leaseBuf(0), leaseBuf(1)
	nc.put(0, a, 0, false)
	nc.put(1, b, 0, false)
	if _, ok := nc.get(0, 0); !ok {
		t.Fatal("sample 0 missed")
	}
	if lost := nc.crash(); lost != 2 {
		t.Fatalf("crash dropped %d entries, want 2", lost)
	}
	wantRecycled(t, "crash", recycled(), b)
	if len(nc.zombies) != 1 || nc.zombies[base(a)].leases != 1 {
		t.Fatalf("zombies %v after the crash, want buffer a with 1 lease", nc.zombies)
	}
	for id := dataset.SampleID(0); id < 4; id++ {
		if e := nc.entries[id]; nc.contains(id) || e.b != nil || e.leases != 0 {
			t.Fatalf("sample %d survives the crash: %+v", id, nc.entries[id])
		}
	}
	nc.ReleasePayload(0, a)
	wantRecycled(t, "release after the crash", recycled(), b, a)
	if len(nc.zombies) != 0 {
		t.Fatalf("%d zombies after the last release", len(nc.zombies))
	}
}

// TestLeaseEveryHit: every resident buffer came from the payload pool,
// so a hit on any entry takes a lease, whether its insert leased it or
// not, and the hit's release balances that lease: the entry stays
// resident and unleased, and nothing is recycled until it is evicted.
func TestLeaseEveryHit(t *testing.T) {
	nc, recycled := leaseCache(t, 3, 3)
	bufs := [][]byte{leaseBuf(0), leaseBuf(1), leaseBuf(2)}
	for i, b := range bufs {
		id := dataset.SampleID(i)
		lease := i == 2 // a demand read's insert, its decode since released
		nc.put(id, b, 0, lease)
		if lease {
			nc.ReleasePayload(id, b)
		}
	}
	for i, b := range bufs {
		id := dataset.SampleID(i)
		p, ok := nc.get(id, 0)
		if !ok || base(p) != base(b) || nc.entries[id].leases != 1 {
			t.Fatalf("hit on sample %d: ok=%v, entry %+v, want its buffer with 1 lease", id, ok, nc.entries[id])
		}
		nc.ReleasePayload(id, p)
		if !nc.contains(id) || nc.entries[id].leases != 0 {
			t.Fatalf("sample %d after its release: entry %+v, want resident and unleased", id, nc.entries[id])
		}
	}
	wantRecycled(t, "hits released", recycled())
	nc.crash()
	wantRecycled(t, "crash", recycled(), bufs...)
}

// TestLeaseSteadyStateDoesNotAllocate: a hit with its lease and release,
// and an insert that evicts and recycles a buffer, allocate
// nothing.
func TestLeaseSteadyStateDoesNotAllocate(t *testing.T) {
	dir, err := NewDirectory(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := newNodeCache(0, 2, leaseSize, cache.NewLRU(), dir)
	if err != nil {
		t.Fatal(err)
	}
	// Evicted buffers go to a free list of the test's own, so the count
	// is the cache's alone and not the payload pool's, which the race
	// detector makes drop buffers at random.
	free := [][]byte{make([]byte, leaseSize)}
	nc.recycle = func(b []byte) { free = append(free, b) }
	nc.put(0, make([]byte, leaseSize), 0, false)
	if n := testing.AllocsPerRun(100, func() {
		p, _ := nc.get(0, 0)
		nc.ReleasePayload(0, p)
	}); n != 0 {
		t.Errorf("get and release: %v allocs per run, want 0", n)
	}
	id := dataset.SampleID(0)
	if n := testing.AllocsPerRun(100, func() {
		id ^= 1
		b := free[len(free)-1]
		free = free[:len(free)-1]
		if ok, _ := nc.put(id, b, 0, false); !ok || len(free) != 1 {
			t.Fatalf("put refused (%v) or evicted nothing (%d free)", !ok, len(free))
		}
	}); n != 0 {
		t.Errorf("put that evicts: %v allocs per run, want 0", n)
	}
}

// TestLeaseConcurrentReaders runs decodes that lease and release against
// an inserter that keeps evicting them, on a cache of four slots over
// eight ids (run under -race -count=10 at several GOMAXPROCS). A reader
// checks its bytes before releasing them: a buffer recycled under a
// lease is poisoned and fails the check. At the end every buffer the
// cache took is recycled exactly once and no lease or zombie is left.
func TestLeaseConcurrentReaders(t *testing.T) {
	const samples, readers, rounds = 8, 4, 400
	nc, recycled := leaseCache(t, samples, 4)
	var (
		mu    sync.Mutex
		taken [][]byte
	)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < rounds; i++ {
				id := dataset.SampleID(rng.Intn(samples))
				p, ok := nc.get(id, 0)
				if !ok {
					continue
				}
				goruntime.Gosched() // let the inserter evict while the lease is out
				if p[0] != byte(id) || p[leaseSize-1] != byte(id) {
					t.Errorf("sample %d's leased buffer holds %#x: recycled under a lease", id, p[0])
				}
				nc.ReleasePayload(id, p)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < readers*rounds/2; i++ {
			id := dataset.SampleID(rng.Intn(samples))
			b := leaseBuf(id)
			if _, retained := nc.put(id, b, 0, false); retained {
				mu.Lock()
				taken = append(taken, b)
				mu.Unlock()
			}
		}
	}()
	wg.Wait()
	nc.crash()
	if len(nc.zombies) != 0 {
		t.Fatalf("%d zombies with every lease released", len(nc.zombies))
	}
	wantRecycled(t, "end of run", recycled(), taken...)
}
