// Package chaos is the deterministic fault-injection layer of the
// reproduction: a seeded Schedule of timed fault events — straggler
// peers, PFS brownouts, cache-node crashes, slow decode workers —
// driven through a common Injector interface by a Controller that
// advances on iteration boundaries.
//
// Determinism is the point. Events activate and revert on iteration
// numbers (the data-parallel barrier's last arriver ticks the
// controller), never on wall-clock timers, and every probabilistic draw
// an injectee makes (error rates, latency jitter) comes from a
// per-event RNG seeded from the schedule's own seed. Two runs of the
// same schedule therefore produce the identical fault event log and —
// for the structural recovery criteria (samples verified, failovers
// observed, directory repaired) — the identical verdicts, which is what
// makes chaos scenarios regression-testable instead of anecdotes.
//
// The package deliberately knows nothing about the subsystems it
// breaks: internal/runtime registers the injectors for every kind, and a
// harness may register its own first (DESIGN.md §13).
package chaos

import (
	"fmt"
	"time"

	"repro/internal/stats"
)

// Kind identifies a fault class. Each kind is wired to one Injector;
// the Target index is interpreted per kind (a cache node for
// Straggler/CacheCrash/SlowDecode, unused for Brownout).
type Kind uint8

const (
	// KindStraggler is a sustained lag on one node's peer-cache serving:
	// every remote fetch from that node pays Fault.Lag (+Jitter), and
	// Fault.ErrRate of them time out empty.
	KindStraggler Kind = iota + 1
	// KindBrownout is a PFS degradation window: elevated per-read
	// latency (Fault.Lag/Jitter) plus transient read failures
	// (Fault.ErrRate) that callers must retry through.
	KindBrownout
	// KindCacheCrash is the loss of one node's cache mid-run: resident
	// payloads are wiped, the directory (shard map) is repaired so no
	// peer keeps reading from the dead node, and peer serving stays down
	// until the event reverts ("restart"). The node's training itself
	// continues — only its cache tier is lost.
	KindCacheCrash
	// KindSlowDecode slows one node's preprocessing workers by
	// Fault.Lag (+Jitter) per job.
	KindSlowDecode
)

// String renders the kind for event logs.
func (k Kind) String() string {
	switch k {
	case KindStraggler:
		return "straggler"
	case KindBrownout:
		return "brownout"
	case KindCacheCrash:
		return "cache-crash"
	case KindSlowDecode:
		return "slow-decode"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is the quantitative half of an event: how broken the target is
// while the event is active. The zero value means healthy; injectors
// revert by applying it.
type Fault struct {
	// Lag is a fixed extra wall-clock latency per affected operation.
	Lag time.Duration
	// Jitter adds a uniform extra latency in [0, Jitter) per operation,
	// drawn from the fault's seeded RNG.
	Jitter time.Duration
	// ErrRate is the per-operation probability of a transient failure.
	ErrRate float64
	// Seed seeds the injectee's RNG for the jitter/error draws. Schedule
	// builders derive it from the schedule seed when left zero, so every
	// probabilistic draw of a chaos run is replayable.
	Seed uint64
}

// IsZero reports whether the fault is the healthy state.
func (f Fault) IsZero() bool {
	return f.Lag == 0 && f.Jitter == 0 && f.ErrRate == 0
}

// Event is one scheduled fault: Kind hits Target for iterations
// [Start, End). End <= 0 means the fault never reverts (it outlives the
// run). Iteration h is the boundary before the h-th training iteration
// runs; Start 0 injects before training begins.
type Event struct {
	Kind   Kind
	Target int
	Start  int
	End    int
	Fault  Fault
}

func (e Event) String() string {
	return fmt.Sprintf("%s target=%d iters=[%d,%d)", e.Kind, e.Target, e.Start, e.End)
}

// Schedule is a seeded list of fault events. Build one with NewSchedule
// and the Add/convenience methods; the builder derives each event's
// Fault.Seed from the schedule seed and the event's position, so the
// same (seed, events) pair replays identically.
type Schedule struct {
	Seed   uint64
	Events []Event
}

// NewSchedule starts an empty schedule with the given seed.
func NewSchedule(seed uint64) *Schedule {
	return &Schedule{Seed: seed}
}

// Add appends an event, deriving its Fault.Seed (when unset) from the
// schedule seed, the event index and the kind. Returns the schedule for
// chaining.
func (s *Schedule) Add(e Event) *Schedule {
	if e.Fault.Seed == 0 {
		e.Fault.Seed = stats.DeriveSeed(s.Seed, uint64(len(s.Events))<<8|uint64(e.Kind))
	}
	s.Events = append(s.Events, e)
	return s
}

// Straggler schedules sustained peer-serving lag on one node.
func (s *Schedule) Straggler(node, start, end int, lag, jitter time.Duration) *Schedule {
	return s.Add(Event{Kind: KindStraggler, Target: node, Start: start, End: end,
		Fault: Fault{Lag: lag, Jitter: jitter}})
}

// Brownout schedules a PFS degradation window.
func (s *Schedule) Brownout(start, end int, lag, jitter time.Duration, errRate float64) *Schedule {
	return s.Add(Event{Kind: KindBrownout, Start: start, End: end,
		Fault: Fault{Lag: lag, Jitter: jitter, ErrRate: errRate}})
}

// CacheCrash schedules the loss of one node's cache at start, revived
// (peer serving restored, cache refilling from scratch) at revive.
func (s *Schedule) CacheCrash(node, start, revive int) *Schedule {
	return s.Add(Event{Kind: KindCacheCrash, Target: node, Start: start, End: revive})
}

// SlowDecode schedules slowed preprocessing on one node.
func (s *Schedule) SlowDecode(node, start, end int, lag, jitter time.Duration) *Schedule {
	return s.Add(Event{Kind: KindSlowDecode, Target: node, Start: start, End: end,
		Fault: Fault{Lag: lag, Jitter: jitter}})
}

// Validate checks every event for well-formedness.
func (s *Schedule) Validate() error {
	for i, e := range s.Events {
		if e.Kind < KindStraggler || e.Kind > KindSlowDecode {
			return fmt.Errorf("chaos: event %d has unknown kind %d", i, e.Kind)
		}
		if e.Target < 0 {
			return fmt.Errorf("chaos: event %d (%s) has negative target", i, e.Kind)
		}
		if e.Start < 0 {
			return fmt.Errorf("chaos: event %d (%s) starts at %d < 0", i, e.Kind, e.Start)
		}
		if e.End > 0 && e.End <= e.Start {
			return fmt.Errorf("chaos: event %d (%s) has empty window [%d,%d)", i, e.Kind, e.Start, e.End)
		}
		if e.Fault.ErrRate < 0 || e.Fault.ErrRate > 1 {
			return fmt.Errorf("chaos: event %d (%s) error rate %g outside [0,1]", i, e.Kind, e.Fault.ErrRate)
		}
		if e.Fault.Lag < 0 || e.Fault.Jitter < 0 {
			return fmt.Errorf("chaos: event %d (%s) has negative lag or jitter", i, e.Kind)
		}
	}
	return nil
}
