package doctor

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// TraceEvent is one Chrome trace-event entry as obs.TraceRing.WriteJSON
// emits it (ts/dur in microseconds). Args hold the attribution the
// runtime stamps on spans: "rank" and "iter" on stall-ledger and
// server-side kv spans.
type TraceEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	Pid  int                `json:"pid"`
	Tid  int64              `json:"tid"`
	Ts   float64            `json:"ts"`
	Dur  float64            `json:"dur"`
	Args map[string]float64 `json:"-"`
	// rawArgs defers decoding: metadata events carry string args
	// ("name"), data events carry numbers.
	RawArgs map[string]json.RawMessage `json:"args"`
}

// Trace is one parsed (or merged) trace file.
type Trace struct {
	Events []TraceEvent
	// Processes maps pid -> process_name metadata, post-merge remap.
	Processes map[int]string
}

// ParseTrace decodes a Chrome trace-event JSON file (the object form
// with a traceEvents array, which is what /trace.json serves).
func ParseTrace(r io.Reader) (*Trace, error) {
	var file struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("doctor: parsing trace: %w", err)
	}
	t := &Trace{Events: file.TraceEvents, Processes: make(map[int]string)}
	for i := range t.Events {
		e := &t.Events[i]
		e.Args = make(map[string]float64, len(e.RawArgs))
		for k, raw := range e.RawArgs {
			var v float64
			if err := json.Unmarshal(raw, &v); err == nil {
				e.Args[k] = v
				continue
			}
			if e.Ph == "M" && k == "name" {
				var s string
				if err := json.Unmarshal(raw, &s); err == nil && e.Name == "process_name" {
					t.Processes[e.Pid] = s
				}
			}
		}
	}
	return t, nil
}

// Merge combines trace dumps from several processes into one timeline.
// Sources whose pid collides with an already-merged source are remapped
// to a fresh pid so their tracks do not interleave; span correlation
// across sources rides on the rank/iter args (which a traced kv request
// carries server-side), not on pids, so remapping loses nothing.
func Merge(traces ...*Trace) *Trace {
	out := &Trace{Processes: make(map[int]string)}
	used := make(map[int]bool)
	nextFree := 0
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		// One remap decision per distinct pid in this source.
		remap := make(map[int]int)
		for pid := range tr.Processes {
			remap[pid] = pid
		}
		for i := range tr.Events {
			pid := tr.Events[i].Pid
			if _, ok := remap[pid]; !ok {
				remap[pid] = pid
			}
		}
		for pid := range remap {
			if used[pid] {
				for used[nextFree] {
					nextFree++
				}
				remap[pid] = nextFree
				used[nextFree] = true
			} else {
				used[pid] = true
			}
		}
		for pid, name := range tr.Processes {
			out.Processes[remap[pid]] = name
		}
		for _, e := range tr.Events {
			e.Pid = remap[e.Pid]
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// The ledger flush emits its attribution spans under two categories,
// both named by cause: what the ranks' demand loads spent, and what the
// nodes' prefetch helpers and idle loading workers spent ahead of demand
// (which no rank waited for). The barrier's per-iteration verdicts are
// instants ("balanced" or "imbalanced", with epoch and critical_rank
// args) under a third.
const (
	catStall    = "stall"
	catPrefetch = "prefetch"
	catBarrier  = "barrier"
)

// ledgerSpans visits every attribution span of one category.
func (t *Trace) ledgerSpans(cat string, fn func(e *TraceEvent)) {
	for i := range t.Events {
		e := &t.Events[i]
		if e.Ph == "X" && e.Cat == cat {
			fn(e)
		}
	}
}

// CauseTotal is one cause's aggregate stall time.
type CauseTotal struct {
	Cause   string
	Seconds float64
}

// WindowCause is one cause's diagnosis for a suspect window: its
// absolute stall time inside the window, and its per-iteration excess
// over the rest of the run.
type WindowCause struct {
	Cause   string
	Seconds float64
	// ExcessPerIter is the cause's per-iteration rate inside the window
	// minus its rate outside (seconds/iteration). A constant background
	// cost — decode queueing, cache serving — nets out to ~0; whatever
	// the window injected stands out.
	ExcessPerIter float64
}

// DiagnoseWindow ranks stall causes for iterations [from, to) by how
// much they exceed their baseline rate over the rest of the run —
// "what changed in the bad window", not "what is expensive everywhere".
// Ranked by excess, absolute seconds breaking ties. When the window
// covers every recorded iteration there is no baseline and the excess
// equals the inside rate.
func (t *Trace) DiagnoseWindow(from, to int64) []WindowCause {
	return t.diagnose(catStall, from, to)
}

// DiagnosePrefetchWindow is DiagnoseWindow for the prefetch side of the
// ledger: a fault the prefetch helpers and idle loading workers absorbed —
// they run ahead of demand, so a lost or lagging peer's cost lands on them
// first — shows up here and not in the ranks' stalls.
func (t *Trace) DiagnosePrefetchWindow(from, to int64) []WindowCause {
	return t.diagnose(catPrefetch, from, to)
}

func (t *Trace) diagnose(cat string, from, to int64) []WindowCause {
	inside := make(map[string]float64)
	outside := make(map[string]float64)
	insideIters := make(map[int64]bool)
	outsideIters := make(map[int64]bool)
	t.ledgerSpans(cat, func(e *TraceEvent) {
		it, ok := e.Args["iter"]
		if !ok {
			return
		}
		i := int64(it)
		if i >= from && i < to {
			inside[e.Name] += e.Dur / 1e6
			insideIters[i] = true
		} else {
			outside[e.Name] += e.Dur / 1e6
			outsideIters[i] = true
		}
	})
	if len(insideIters) == 0 {
		return nil
	}
	nIn, nOut := float64(len(insideIters)), float64(len(outsideIters))
	out := make([]WindowCause, 0, len(inside))
	for c, s := range inside {
		wc := WindowCause{Cause: c, Seconds: s, ExcessPerIter: s / nIn}
		if nOut > 0 {
			wc.ExcessPerIter -= outside[c] / nOut
		}
		out = append(out, wc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ExcessPerIter != out[j].ExcessPerIter {
			return out[i].ExcessPerIter > out[j].ExcessPerIter
		}
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}

// TopCauseInWindow names the cause the doctor blames for [from, to):
// the data-path cause with the largest positive baseline excess.
// Pipeline queueing causes are blamed only when no data-path cause
// moved at all — they inflate second-hand whenever any data-path leg
// slows down, so their excess is a symptom, not a diagnosis. Returns
// "" when the window holds no attribution spans.
func (t *Trace) TopCauseInWindow(from, to int64) string {
	return TopCause(t.DiagnoseWindow(from, to))
}

// TopCause applies TopCauseInWindow's blame rule to a window diagnosis
// from either side of the ledger.
func TopCause(diag []WindowCause) string {
	for _, wc := range diag {
		if DataPathCause(wc.Cause) && wc.ExcessPerIter > 0 {
			return wc.Cause
		}
	}
	if len(diag) == 0 {
		return ""
	}
	return diag[0].Cause
}
