package runtime

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataset"
)

func TestRetryTransientBackoffCapped(t *testing.T) {
	// Doubling from 1 ms, then 16 ms for ever.
	d := pfsRetryBase
	for i, want := range []time.Duration{1, 2, 4, 8, 16, 16, 16} {
		if d != want*time.Millisecond {
			t.Fatalf("backoff %d = %v, want %v", i, d, want*time.Millisecond)
		}
		d = nextBackoff(d)
	}
}

// TestRetryTransientSucceedsAfterRetries steps one tierRead by hand
// through PFS reads that fail: each failure is counted as a retry and
// followed by a wall-clock backoff that doubles, after which the read is
// booked again; the first read that succeeds is counted once and staged.
func TestRetryTransientSucceedsAfterRetries(t *testing.T) {
	node, _ := loaderFixture(t, newFakeClock())
	pfs := node.rt.pfs
	var r tierRead

	pfs.SetFault(chaos.Fault{ErrRate: 1, Seed: 3})
	node.begin(&r, 7, 0, nil, false, 0)
	for i, backoff := range []time.Duration{time.Millisecond, 2 * time.Millisecond} {
		if r.leg != legPFS || !r.pfs.failed {
			t.Fatalf("attempt %d: leg %d failed=%v, want a failed PFS read", i, r.leg, r.pfs.failed)
		}
		before := time.Now()
		if node.step(&r) {
			t.Fatalf("attempt %d: a failed read ended the walk", i)
		}
		if r.leg != legBackoff || r.due.Before(before.Add(backoff)) || r.due.After(time.Now().Add(backoff)) {
			t.Fatalf("attempt %d: leg %d due in %v, want a backoff of %v", i, r.leg, time.Until(r.due), backoff)
		}
		if i == 1 {
			pfs.SetFault(chaos.Fault{})
		}
		if node.step(&r) {
			t.Fatalf("attempt %d: the backoff ended the walk", i)
		}
	}
	if r.leg != legPFS || r.pfs.failed || !node.step(&r) {
		t.Fatalf("leg %d failed=%v after the fault cleared, want a read that ends the walk", r.leg, r.pfs.failed)
	}
	if _, _, _, ok := node.result(&r); !ok || !node.cache.contains(7) {
		t.Fatal("the read that succeeded was not staged")
	}
	if reads, retries := node.pfsReads.Load(), node.pfsRetries.Load(); reads != 1 || retries != 2 || retries != uint64(pfs.Failures()) {
		t.Fatalf("%d reads and %d retries counted (store failed %d), want 1 and 2", reads, retries, pfs.Failures())
	}
}

// TestRetryTransientImmediateSuccessSkipsHooks checks that a PFS read that
// succeeds at once ends the walk in one step: it books no backoff, counts
// no retry, and hands a demand read a verified leased payload.
func TestRetryTransientImmediateSuccessSkipsHooks(t *testing.T) {
	node, _ := loaderFixture(t, newFakeClock())
	var r tierRead

	node.begin(&r, 8, 0, nil, true, 0)
	if r.leg != legPFS || r.pfs.failed || !node.step(&r) {
		t.Fatalf("healthy read: leg %d failed=%v, want one read that ends the walk", r.leg, r.pfs.failed)
	}
	payload, owned, owner, ok := node.result(&r)
	if !ok || owned || owner == nil || dataset.VerifyPayload(payload, 5, 8) != nil {
		t.Fatalf("healthy demand read: ok=%v owned=%v owner=%v, want a verified leased payload", ok, owned, owner)
	}
	owner.ReleasePayload(8, payload)
	if reads, retries := node.pfsReads.Load(), node.pfsRetries.Load(); reads != 1 || retries != 0 {
		t.Fatalf("%d reads and %d retries after a healthy read, want 1 and 0", reads, retries)
	}
}
