package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestScheduleBuildersDeriveSeeds(t *testing.T) {
	s := NewSchedule(42).
		Straggler(1, 2, 5, time.Millisecond, time.Millisecond).
		Brownout(3, 7, time.Millisecond, 0, 0.5).
		CacheCrash(0, 4, 8).
		SlowDecode(0, 2, 4, time.Millisecond, 0)
	if len(s.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(s.Events))
	}
	seen := map[uint64]bool{}
	for i, e := range s.Events {
		if e.Fault.Seed == 0 {
			t.Fatalf("event %d (%s) has no derived seed", i, e.Kind)
		}
		if seen[e.Fault.Seed] {
			t.Fatalf("event %d (%s) shares a derived seed", i, e.Kind)
		}
		seen[e.Fault.Seed] = true
	}
	// Same schedule seed, same construction order => same derived seeds.
	s2 := NewSchedule(42).
		Straggler(1, 2, 5, time.Millisecond, time.Millisecond).
		Brownout(3, 7, time.Millisecond, 0, 0.5)
	for i := range s2.Events {
		if s2.Events[i].Fault.Seed != s.Events[i].Fault.Seed {
			t.Fatalf("event %d seed not reproducible", i)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := []Event{
		{Kind: 0, Start: 0},
		{Kind: KindSlowDecode + 1, Start: 0},
		{Kind: KindStraggler, Target: -1},
		{Kind: KindStraggler, Start: -1},
		{Kind: KindStraggler, Start: 5, End: 5},
		{Kind: KindBrownout, Fault: Fault{ErrRate: 1.5}},
		{Kind: KindStraggler, Fault: Fault{ErrRate: -0.1}},
		{Kind: KindStraggler, Fault: Fault{Lag: -time.Second}},
	}
	for i, e := range bad {
		s := &Schedule{Events: []Event{e}}
		if err := s.Validate(); err == nil {
			t.Errorf("bad event %d (%+v) passed validation", i, e)
		}
	}
}

// recorder is a test injector that logs transitions.
type recorder struct {
	log *[]string
	tag string
}

func (r recorder) Inject(e Event) error {
	*r.log = append(*r.log, fmt.Sprintf("%s+%s", r.tag, e.Kind))
	return nil
}

func (r recorder) Revert(e Event) error {
	*r.log = append(*r.log, fmt.Sprintf("%s-%s", r.tag, e.Kind))
	return nil
}

func TestControllerLifecycle(t *testing.T) {
	s := NewSchedule(7).
		Brownout(2, 4, time.Millisecond, 0, 0.5). // iters [2,4)
		CacheCrash(0, 3, 0)                       // never reverts on its own
	c, err := NewController(s)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	c.Register(KindBrownout, recorder{&log, "b"})
	c.Register(KindCacheCrash, recorder{&log, "c"})
	for iter := 0; iter <= 6; iter++ {
		c.OnIteration(iter)
	}
	wantOrder := []string{"b+brownout", "c+cache-crash", "b-brownout"}
	if fmt.Sprint(log) != fmt.Sprint(wantOrder) {
		t.Fatalf("injector transitions = %v, want %v", log, wantOrder)
	}
	inj, rev := c.Counts()
	if inj != 2 || rev != 1 {
		t.Fatalf("counts = (%d,%d), want (2,1)", inj, rev)
	}
	// Brownout active at boundaries 2,3; cache crash from 3 on: 2..6.
	if got := c.DegradedIters(); got != 5 {
		t.Fatalf("degraded iters = %d, want 5", got)
	}
	c.Finish() // reverts the still-active cache crash
	if _, rev := c.Counts(); rev != 2 {
		t.Fatalf("reverted after Finish = %d, want 2", rev)
	}
	for _, line := range c.EventLog() {
		if !strings.HasPrefix(line, "iter=") {
			t.Fatalf("malformed log line %q", line)
		}
	}
}

func TestControllerIgnoresStaleBoundaries(t *testing.T) {
	s := NewSchedule(1).Brownout(1, 2, 0, 0, 0.1)
	c, _ := NewController(s)
	var log []string
	c.Register(KindBrownout, recorder{&log, "b"})
	c.OnIteration(3) // past the window entirely: inject is skipped (iter >= End)
	c.OnIteration(1) // stale: ignored
	if len(log) != 0 {
		t.Fatalf("stale/late boundaries caused transitions: %v", log)
	}
}

func TestControllerSkipsUnwiredKinds(t *testing.T) {
	s := NewSchedule(1).SlowDecode(0, 0, 2, time.Millisecond, 0)
	c, _ := NewController(s)
	c.OnIteration(0)
	logd := c.EventLog()
	if len(logd) != 1 || !strings.Contains(logd[0], "skip slow-decode") {
		t.Fatalf("unwired kind not skipped: %v", logd)
	}
	if inj, _ := c.Counts(); inj != 0 {
		t.Fatalf("skip counted as injection")
	}
}

func TestRegisterDefaultDoesNotClobber(t *testing.T) {
	s := NewSchedule(1).Brownout(0, 1, 0, 0, 0.1)
	c, _ := NewController(s)
	var hard, soft []string
	c.Register(KindBrownout, recorder{&hard, "hard"})
	c.RegisterDefault(KindBrownout, recorder{&soft, "soft"}) // must not replace
	c.RegisterDefault(KindStraggler, recorder{&soft, "soft"})
	c.OnIteration(0)
	if len(hard) != 1 || len(soft) != 0 {
		t.Fatalf("RegisterDefault clobbered an explicit injector: hard=%v soft=%v", hard, soft)
	}
}

func TestControllerLogDeterministic(t *testing.T) {
	build := func() []string {
		s := NewSchedule(99).
			Straggler(1, 1, 3, time.Millisecond, 0).
			Brownout(2, 5, 0, 0, 0.3).
			CacheCrash(0, 2, 4)
		c, _ := NewController(s)
		var log []string
		for _, k := range []Kind{KindStraggler, KindBrownout, KindCacheCrash} {
			c.Register(k, recorder{&log, "x"})
		}
		for iter := 0; iter <= 6; iter++ {
			c.OnIteration(iter)
		}
		c.Finish()
		return c.EventLog()
	}
	a, b := build(), build()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("event log not deterministic:\n%v\n%v", a, b)
	}
}

func TestNewControllerRejectsBadSchedules(t *testing.T) {
	if _, err := NewController(nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
	s := &Schedule{Events: []Event{{Kind: KindStraggler, Target: -2}}}
	if _, err := NewController(s); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}
