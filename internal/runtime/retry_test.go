package runtime

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestRetryTransientSucceedsAfterRetries(t *testing.T) {
	calls, retries := 0, 0
	err := retryTransient(func() { retries++ }, func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("read: %w", ErrTransient) // wrapped transients retry too
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retryTransient = %v", err)
	}
	if calls != 3 || retries != 2 {
		t.Fatalf("calls = %d, retries = %d; want 3, 2", calls, retries)
	}
}

func TestRetryTransientStopsOnNonRetryable(t *testing.T) {
	fatal := errors.New("fatal")
	calls, retries := 0, 0
	err := retryTransient(func() { retries++ }, func() error { calls++; return fatal })
	if !errors.Is(err, fatal) {
		t.Fatalf("retryTransient = %v, want %v", err, fatal)
	}
	if calls != 1 || retries != 0 {
		t.Fatalf("non-transient error retried: %d calls, %d retries", calls, retries)
	}
}

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

func TestRetryTransientImmediateSuccessSkipsHooks(t *testing.T) {
	hooked := false
	err := retryTransient(func() { hooked = true }, func() error { return nil })
	if err != nil || hooked {
		t.Fatalf("err = %v, hooked = %v", err, hooked)
	}
}
