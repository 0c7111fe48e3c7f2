package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTraceRingBasics records a span and an instant and checks both the
// programmatic snapshot and the ring's bookkeeping.
func TestTraceRingBasics(t *testing.T) {
	tr := NewTraceRing(64)
	tid := tr.NewThread("worker0")
	if tid == 0 {
		t.Fatal("NewThread returned 0")
	}
	if got := tr.ThreadName(tid); got != "worker0" {
		t.Fatalf("ThreadName = %q, want worker0", got)
	}
	start := time.Now()
	tr.SpanArgs("load", "io", tid, start, 5*time.Millisecond, "sample", 42, "", 0)
	tr.Instant("resize", "ctrl", tid, "preproc", 3, "load_total", 9)
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	span := events[0]
	if span.Ph != 'X' || span.Name != "load" || span.Arg1 != 42 {
		t.Fatalf("unexpected span event %+v", span)
	}
	if span.DurNs != (5 * time.Millisecond).Nanoseconds() {
		t.Fatalf("span duration %d, want 5ms", span.DurNs)
	}
	if inst := events[1]; inst.Ph != 'i' || inst.Arg2 != 9 {
		t.Fatalf("unexpected instant event %+v", inst)
	}
}

// TestTraceRingNil checks every method is a no-op on a nil ring.
func TestTraceRingNil(t *testing.T) {
	var tr *TraceRing
	if tid := tr.NewThread("x"); tid != 0 {
		t.Fatalf("nil NewThread = %d, want 0", tid)
	}
	tr.Span("a", "b", 1, time.Now(), time.Millisecond)
	tr.Instant("a", "b", 1, "", 0, "", 0)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil ring must be empty")
	}
	if err := tr.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("nil WriteJSON must error")
	}
}

// TestTraceRingWraps checks the ring keeps only the most recent spans.
func TestTraceRingWraps(t *testing.T) {
	tr := NewTraceRing(64)
	tid := tr.NewThread("w")
	start := time.Now()
	for i := 0; i < 200; i++ {
		tr.SpanArgs("s", "c", tid, start.Add(time.Duration(i)*time.Microsecond), time.Microsecond,
			"i", int64(i), "", 0)
	}
	events := tr.Events()
	if len(events) != 64 {
		t.Fatalf("got %d events after wrap, want 64", len(events))
	}
	for _, e := range events {
		if e.Arg1 < 200-64 {
			t.Fatalf("ring kept stale span %d after wrap", e.Arg1)
		}
	}
}

// chromeTrace mirrors the trace-event JSON for decoding in tests.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Tid  int64          `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTraceWriteJSON checks the exported file parses and carries the
// metadata plus span/instant phases Perfetto expects.
func TestTraceWriteJSON(t *testing.T) {
	tr := NewTraceRing(64)
	tid := tr.NewThread("node0/gpu0/loader1")
	tr.Span("load", "io", tid, time.Now(), 3*time.Millisecond)
	tr.Instant("thread_resize", "ctrl", tid, "preproc", 2, "", 0)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	var haveProc, haveThread, haveSpan, haveInstant bool
	for _, e := range out.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			haveProc = true
		case e.Ph == "M" && e.Name == "thread_name":
			haveThread = e.Args["name"] == "node0/gpu0/loader1"
		case e.Ph == "X" && e.Name == "load":
			haveSpan = true
			if e.Dur < 2900 || e.Dur > 3100 {
				t.Fatalf("span dur %v µs, want ~3000", e.Dur)
			}
		case e.Ph == "i" && e.Name == "thread_resize":
			haveInstant = e.S == "t" && e.Args["preproc"] == float64(2)
		}
	}
	if !haveProc || !haveThread || !haveSpan || !haveInstant {
		t.Fatalf("trace missing required events: proc=%v thread=%v span=%v instant=%v\n%s",
			haveProc, haveThread, haveSpan, haveInstant, buf.String())
	}
}

// TestTraceRingConcurrentScrape publishes spans from 32 goroutines
// while the ring is concurrently dumped — the -race proof that live
// scrapes never tear recording.
func TestTraceRingConcurrentScrape(t *testing.T) {
	tr := NewTraceRing(256)
	const writers, spansEach = 32, 200
	var wg sync.WaitGroup
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stopScrape:
				return
			default:
			}
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Error(err)
				return
			}
			var out chromeTrace
			if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
				t.Errorf("mid-run scrape does not parse: %v", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tid := tr.NewThread(fmt.Sprintf("writer%d", w))
			for i := 0; i < spansEach; i++ {
				tr.SpanArgs("op", "test", tid, time.Now(), time.Microsecond,
					"i", int64(i), "", 0)
			}
		}(w)
	}
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()
	if tr.Len() != 256 {
		t.Fatalf("ring holds %d events, want full 256", tr.Len())
	}
}

// TestWithTraceRoundTrip checks a TraceCtx rides a context.Context: a
// valid one comes back out, and a zero one leaves ctx itself in place.
func TestWithTraceRoundTrip(t *testing.T) {
	bg := context.Background()
	if got := TraceFrom(bg); got != 0 {
		t.Fatalf("TraceFrom(Background) = %#x, want 0", got)
	}
	if WithTrace(bg, 0) != bg {
		t.Fatal("WithTrace with a zero trace wrapped ctx")
	}
	tc := NewTraceCtx(3, 1, 7)
	ctx, cancel := context.WithCancel(WithTrace(bg, tc))
	defer cancel()
	if got := TraceFrom(ctx); got != tc {
		t.Fatalf("TraceFrom = %#x, want %#x", got, tc)
	}
}
