package cache

import (
	"testing"

	"repro/internal/dataset"
)

// fakeOracle implements Oracle from explicit access lists.
type fakeOracle struct {
	accesses map[dataset.SampleID][]Iter
	iters    int
}

func (f *fakeOracle) NextUse(id dataset.SampleID, after Iter) Iter {
	for _, g := range f.accesses[id] {
		if g > after {
			return g
		}
	}
	return NoAccess
}

func (f *fakeOracle) UsesRemaining(id dataset.SampleID, after Iter) int {
	n := 0
	for _, g := range f.accesses[id] {
		if g > after {
			n++
		}
	}
	return n
}

func (f *fakeOracle) Future(id dataset.SampleID, after Iter) (Iter, int) {
	return f.NextUse(id, after), f.UsesRemaining(id, after)
}

func (f *fakeOracle) IterationsPerEpoch() int { return f.iters }

func mustCache(t *testing.T, capacity int64, p Policy) *Cache {
	t.Helper()
	c, err := New(capacity, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, NewLRU()); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(10, nil); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestPutGetBasic(t *testing.T) {
	c := mustCache(t, 100, NewLRU())
	if c.Get(1, 0) {
		t.Fatal("hit on empty cache")
	}
	if _, ok := c.Put(1, 40, 0); !ok {
		t.Fatal("put rejected with free space")
	}
	if !c.Get(1, 1) {
		t.Fatal("miss after put")
	}
	if c.Used() != 40 || c.Len() != 1 {
		t.Fatalf("accounting wrong: used=%d len=%d", c.Used(), c.Len())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %g, want 0.5", st.HitRatio())
	}
}

func TestPutDuplicateIsNoop(t *testing.T) {
	c := mustCache(t, 100, NewLRU())
	c.Put(1, 40, 0)
	ev, ok := c.Put(1, 40, 1)
	if !ok || len(ev) != 0 {
		t.Fatalf("duplicate put: ev=%v ok=%v", ev, ok)
	}
	if c.Used() != 40 {
		t.Fatalf("duplicate put changed accounting: %d", c.Used())
	}
}

func TestPutTooLargeRejected(t *testing.T) {
	c := mustCache(t, 100, NewLRU())
	if _, ok := c.Put(1, 101, 0); ok {
		t.Fatal("oversized sample accepted")
	}
	if c.Stats().Rejected != 1 {
		t.Fatal("rejection not counted")
	}
}

func TestPutZeroSizePanics(t *testing.T) {
	c := mustCache(t, 100, NewLRU())
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size put did not panic")
		}
	}()
	c.Put(1, 0, 0)
}

func TestLRUEvictionOrder(t *testing.T) {
	c := mustCache(t, 30, NewLRU())
	c.Put(1, 10, 0)
	c.Put(2, 10, 1)
	c.Put(3, 10, 2)
	c.Get(1, 3) // 1 becomes MRU; LRU order now 2, 3, 1
	ev, ok := c.Put(4, 10, 4)
	if !ok || len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2]", ev)
	}
	ev, ok = c.Put(5, 20, 5) // needs to evict two: 3 then 1
	if !ok || len(ev) != 2 || ev[0] != 3 || ev[1] != 1 {
		t.Fatalf("evicted %v, want [3 1]", ev)
	}
}

func TestFIFOEvictionOrder(t *testing.T) {
	c := mustCache(t, 30, NewFIFO())
	c.Put(1, 10, 0)
	c.Put(2, 10, 1)
	c.Put(3, 10, 2)
	c.Get(1, 3) // FIFO ignores the hit
	ev, ok := c.Put(4, 10, 4)
	if !ok || len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1]", ev)
	}
}

func TestNeverEvictRejectsWhenFull(t *testing.T) {
	c := mustCache(t, 20, NewNeverEvict())
	c.Put(1, 10, 0)
	c.Put(2, 10, 1)
	ev, ok := c.Put(3, 10, 2)
	if ok || len(ev) != 0 {
		t.Fatalf("never-evict evicted %v ok=%v", ev, ok)
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Fatal("resident samples lost")
	}
}

func TestRemove(t *testing.T) {
	c := mustCache(t, 100, NewLRU())
	c.Put(1, 10, 0)
	if !c.Remove(1) {
		t.Fatal("remove of present sample returned false")
	}
	if c.Remove(1) {
		t.Fatal("second remove returned true")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("remove did not free space")
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("Remove must not count as eviction")
	}
}

func TestBeladyEvictsFarthest(t *testing.T) {
	o := &fakeOracle{iters: 100, accesses: map[dataset.SampleID][]Iter{
		1: {10},
		2: {50},
		3: {5},
		4: {7},
	}}
	c := mustCache(t, 30, NewBelady(o))
	c.Put(1, 10, 0)
	c.Put(2, 10, 0)
	c.Put(3, 10, 0)
	// Incoming 4 (next use 7): farthest resident is 2 (next use 50).
	ev, ok := c.Put(4, 10, 0)
	if !ok || len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2]", ev)
	}
}

func TestBeladyRefusesWorseIncoming(t *testing.T) {
	o := &fakeOracle{iters: 100, accesses: map[dataset.SampleID][]Iter{
		1: {10},
		2: {20},
		3: {90}, // incoming, needed later than anything resident
	}}
	c := mustCache(t, 20, NewBelady(o))
	c.Put(1, 10, 0)
	c.Put(2, 10, 0)
	ev, ok := c.Put(3, 10, 0)
	if ok || len(ev) != 0 {
		t.Fatalf("belady admitted a worse sample: ev=%v ok=%v", ev, ok)
	}
	if c.Stats().Rejected != 1 {
		t.Fatal("refusal not counted as rejection")
	}
}

func TestBeladyNeverAgainEvictedFirst(t *testing.T) {
	o := &fakeOracle{iters: 100, accesses: map[dataset.SampleID][]Iter{
		1: {}, // never used again
		2: {50},
		3: {5},
	}}
	c := mustCache(t, 20, NewBelady(o))
	c.Put(1, 10, 0)
	c.Put(2, 10, 0)
	ev, ok := c.Put(3, 10, 0)
	if !ok || len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1] (never used again)", ev)
	}
}

func TestBeladyKeyUpdatesOnGet(t *testing.T) {
	o := &fakeOracle{iters: 100, accesses: map[dataset.SampleID][]Iter{
		1: {5, 60},
		2: {40},
		3: {30},
	}}
	c := mustCache(t, 20, NewBelady(o))
	c.Put(1, 10, 0)
	c.Put(2, 10, 0)
	c.Get(1, 5) // 1's next use becomes 60: now the farthest
	ev, ok := c.Put(3, 10, 6)
	if !ok || len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("evicted %v, want [1] after its key update", ev)
	}
}

func TestLobsterReuseCountRule(t *testing.T) {
	o := &fakeOracle{iters: 100, accesses: map[dataset.SampleID][]Iter{
		1: {5}, // last use at 5
		2: {50},
	}}
	c := mustCache(t, 100, NewLobster(o, LobsterOptions{}))
	c.Put(1, 10, 0)
	c.Put(2, 10, 0)
	c.Get(1, 5) // consumes the final use
	ev := c.Maintain(5)
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("Maintain evicted %v, want [1]", ev)
	}
	if !c.Contains(2) {
		t.Fatal("sample 2 wrongly evicted")
	}
}

func TestLobsterLastCopyProtection(t *testing.T) {
	o := &fakeOracle{iters: 100, accesses: map[dataset.SampleID][]Iter{1: {5}}}
	lastCopy := true
	c := mustCache(t, 100, NewLobster(o, LobsterOptions{
		IsLastCopy: func(id dataset.SampleID) bool { return lastCopy },
	}))
	c.Put(1, 10, 0)
	c.Get(1, 5)
	if ev := c.Maintain(5); len(ev) != 0 {
		t.Fatalf("last copy evicted: %v", ev)
	}
	// Once another node holds a copy, the rule applies on the next touch.
	lastCopy = false
	c.Get(1, 6)
	if ev := c.Maintain(6); len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("Maintain evicted %v, want [1] once not last copy", ev)
	}
}

func TestLobsterReuseDistanceRule(t *testing.T) {
	// I = 10. At h=3 (within epoch 0), a sample whose next use is more
	// than 2*10-3 = 17 iterations away (i.e. beyond the next epoch) must
	// be proactively evicted.
	o := &fakeOracle{iters: 10, accesses: map[dataset.SampleID][]Iter{
		1: {3, 25}, // distance 22 > 17 after the access at 3
		2: {3, 15}, // distance 12 <= 17: stays
	}}
	c := mustCache(t, 100, NewLobster(o, LobsterOptions{}))
	c.Put(1, 10, 0)
	c.Put(2, 10, 0)
	c.Get(1, 3)
	c.Get(2, 3)
	ev := c.Maintain(3)
	if len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("Maintain evicted %v, want [1]", ev)
	}
}

// TestBeladyHasNoProactiveRules: the accesses that make Lobster expire
// both samples (one past its last use, one beyond the next epoch) leave
// Belady's cache untouched.
func TestBeladyHasNoProactiveRules(t *testing.T) {
	o := &fakeOracle{iters: 10, accesses: map[dataset.SampleID][]Iter{
		1: {3, 25},
		2: {3},
	}}
	for _, tc := range []struct {
		p    Policy
		want int
	}{{NewBelady(o), 0}, {NewLobster(o, LobsterOptions{}), 2}} {
		c := mustCache(t, 100, tc.p)
		c.Put(1, 10, 0)
		c.Put(2, 10, 0)
		c.Get(1, 3)
		c.Get(2, 3)
		if ev := c.Maintain(3); len(ev) != tc.want {
			t.Fatalf("%s: Maintain evicted %v, want %d samples", tc.p.Name(), ev, tc.want)
		}
	}
}

func TestLobsterVictimPrefersFarthest(t *testing.T) {
	o := &fakeOracle{iters: 1000, accesses: map[dataset.SampleID][]Iter{
		1: {100},
		2: {900},
		3: {50},
	}}
	c := mustCache(t, 20, NewLobster(o, LobsterOptions{}))
	c.Put(1, 10, 0)
	c.Put(2, 10, 0)
	ev, ok := c.Put(3, 10, 0)
	if !ok || len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("evicted %v, want [2]", ev)
	}
}

func TestNoPFSCountRuleNoProtection(t *testing.T) {
	o := &fakeOracle{iters: 100, accesses: map[dataset.SampleID][]Iter{
		1: {5},
		2: {7, 50},
	}}
	c := mustCache(t, 100, NewNoPFS(o))
	c.Put(1, 10, 0)
	c.Put(2, 10, 0)
	c.Get(1, 5)
	if ev := c.Maintain(5); len(ev) != 1 || ev[0] != 1 {
		t.Fatalf("NoPFS Maintain evicted %v, want [1]", ev)
	}
}

func TestNoPFSVictimIsLRU(t *testing.T) {
	o := &fakeOracle{iters: 100, accesses: map[dataset.SampleID][]Iter{
		1: {90}, // far future — Lobster would evict this one
		2: {10},
		3: {20},
	}}
	c := mustCache(t, 20, NewNoPFS(o))
	c.Put(1, 10, 0)
	c.Put(2, 10, 1)
	c.Get(1, 2) // LRU order: 2 (oldest), 1
	ev, ok := c.Put(3, 10, 3)
	if !ok || len(ev) != 1 || ev[0] != 2 {
		t.Fatalf("NoPFS evicted %v, want [2] (LRU), proving it ignores reuse distance", ev)
	}
}

func TestMaintainBaselinesNoop(t *testing.T) {
	for _, p := range []Policy{NewLRU(), NewFIFO(), NewNeverEvict()} {
		c := mustCache(t, 100, p)
		c.Put(1, 10, 0)
		if ev := c.Maintain(50); len(ev) != 0 {
			t.Errorf("%s Maintain evicted %v", p.Name(), ev)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	o := &fakeOracle{iters: 1}
	names := map[string]Policy{
		"lru":         NewLRU(),
		"fifo":        NewFIFO(),
		"never-evict": NewNeverEvict(),
		"belady":      NewBelady(o),
		"lobster":     NewLobster(o, LobsterOptions{}),
		"nopfs":       NewNoPFS(o),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("policy name = %q, want %q", p.Name(), want)
		}
	}
}
