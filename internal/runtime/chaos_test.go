package runtime

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/preproc"
)

// TestNodeCacheCrashClearsDirectory: a crashed node cache drops every
// directory bit it held, and copies on other nodes stay advertised.
func TestNodeCacheCrashClearsDirectory(t *testing.T) {
	dir, err := NewDirectory(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := newNodeCache(1, 16, 1<<20, cache.NewLRU(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := dataset.SampleID(0); id < 8; id++ {
		nc.put(id, preproc.GetPayloadBuf(16), 0, false)
	}
	dir.Add(2, 0)
	if lost := nc.crash(); lost != 8 {
		t.Fatalf("crash dropped %d entries, want 8", lost)
	}
	if got := dir.Holder(0, 0); got != 2 {
		t.Fatalf("Holder(0) = %d after crash, want 2", got)
	}
	for id := dataset.SampleID(1); id < 8; id++ {
		if got := dir.Holder(id, 0); got != -1 || nc.contains(id) {
			t.Fatalf("sample %d: Holder %d, resident %v after crash", id, got, nc.contains(id))
		}
	}
}

func TestDistributionManagerNodeDown(t *testing.T) {
	dm := peerManager(t, 0.0001, newFakeClock(), preproc.GetPayloadBuf(128))
	dm.SetNodeDown(1, true)
	if !dm.NodeDown(1) || dm.NodeDown(0) {
		t.Fatal("down flags wrong")
	}
	// A fetch from a down peer returns nil although its cache holds the
	// sample — the requester's failover path.
	if p, evicted := fetchPeer(dm, 1, 0, 128); p != nil || evicted {
		t.Fatalf("fetch from down node returned %d bytes", len(p))
	}
	dm.SetNodeDown(1, false)
	if dm.NodeDown(1) {
		t.Fatal("revive did not clear the down flag")
	}
	// Straggler profile survives a down/up transition.
	dm.SetNodeFault(1, chaos.Fault{Lag: time.Millisecond, Seed: 1})
	dm.SetNodeDown(1, true)
	dm.SetNodeDown(1, false)
	if dm.faults[1].Load() == nil || dm.faults[1].Load().lag != time.Millisecond {
		t.Fatal("straggler profile lost across down/up")
	}
	dm.SetNodeFault(1, chaos.Fault{})
	if dm.faults[1].Load() != nil {
		t.Fatal("zero fault on healthy node did not clear state")
	}
}

func TestNodeCacheCrashRepairsDirectory(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 2, 1)
	sched := chaos.NewSchedule(5)
	// Crash node 1's cache a third of the way in; revive two thirds in.
	iters := opts.Dataset.Len() / (2 * 2 * opts.Model.BatchSize)
	sched.CacheCrash(1, iters/3, 2*iters/3)
	ctl, err := chaos.NewController(sched)
	if err != nil {
		t.Fatal(err)
	}
	opts.Chaos = ctl
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(stats.Iterations) * uint64(2*2*opts.Model.BatchSize)
	if stats.SamplesVerified != want {
		t.Fatalf("verified %d/%d with a cache crash mid-run", stats.SamplesVerified, want)
	}
	checkOracle(t, opts, stats)
	if inj, rev := ctl.Counts(); inj != 1 || rev != 1 {
		t.Fatalf("controller counts = (%d,%d), want (1,1)", inj, rev)
	}
}

// TestTrainingSurvivesPeerLossMidEpoch is the headline recovery
// scenario: one node's peer cache goes fully dark mid-epoch (every
// promised peer read fails), then the node crashes outright. Training
// must complete with every sample verified and the failover counter
// must show the PFS picked up the slack.
func TestTrainingSurvivesPeerLossMidEpoch(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 2, 2)
	iters := opts.Dataset.Len() / (2 * 2 * opts.Model.BatchSize) // per epoch
	sched := chaos.NewSchedule(11)
	// Both peers serve nothing for the whole run (stragglers with 100%
	// timeouts): every remote fetch the directory promises must fail
	// over to the PFS. End 0 = the fault outlives the run.
	for node := 0; node < 2; node++ {
		sched.Add(chaos.Event{
			Kind: chaos.KindStraggler, Target: node,
			Fault: chaos.Fault{ErrRate: 1},
		})
	}
	// Epoch 1: node 1's cache is lost mid-epoch, revived 4 iters later.
	sched.CacheCrash(1, iters+iters/2, iters+iters/2+4)
	ctl, err := chaos.NewController(sched)
	if err != nil {
		t.Fatal(err)
	}
	opts.Chaos = ctl
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(stats.Iterations) * uint64(2*2*opts.Model.BatchSize)
	if stats.SamplesVerified != want {
		t.Fatalf("verified %d/%d under peer loss", stats.SamplesVerified, want)
	}
	checkOracle(t, opts, stats)
	if stats.Failovers == 0 {
		t.Fatal("no failovers recorded despite fully dark peers")
	}
	// 3 injected; the cache crash reverted mid-run, the stragglers at
	// Finish.
	if inj, rev := ctl.Counts(); inj != 3 || rev != 3 {
		t.Fatalf("controller counts = (%d,%d), want (3,3)", inj, rev)
	}
	if ctl.DegradedIters() == 0 {
		t.Fatal("no degraded iterations recorded")
	}
}

func TestTrainingSurvivesBrownout(t *testing.T) {
	opts := testOptions(t, loader.NoPFS(2, 8), 1, 2)
	sched := chaos.NewSchedule(3)
	// PFS brownout for the middle of the run: transient failures the
	// retry loop must absorb, plus a little extra latency.
	sched.Brownout(4, 12, 200*time.Microsecond, 100*time.Microsecond, 0.5)
	ctl, err := chaos.NewController(sched)
	if err != nil {
		t.Fatal(err)
	}
	opts.Chaos = ctl
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(stats.Iterations) * uint64(2*opts.Model.BatchSize)
	if stats.SamplesVerified != want {
		t.Fatalf("verified %d/%d through the brownout", stats.SamplesVerified, want)
	}
	checkOracle(t, opts, stats)
	if stats.PFSRetries == 0 {
		t.Fatal("no PFS retries despite a 50% brownout window")
	}
}

// TestChaosEventLogDeterministic pins the replayability contract: the
// same schedule against the same run produces the identical event log.
func TestChaosEventLogDeterministic(t *testing.T) {
	run := func() []string {
		opts := testOptions(t, loader.Lobster(), 2, 1)
		sched := chaos.NewSchedule(21).
			SlowDecode(0, 1, 4, 100*time.Microsecond, 100*time.Microsecond).
			Brownout(3, 6, 0, 0, 0.25).
			CacheCrash(1, 5, 9)
		ctl, err := chaos.NewController(sched)
		if err != nil {
			t.Fatal(err)
		}
		opts.Chaos = ctl
		stats, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, opts, stats)
		return ctl.EventLog()
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("event log differs across identical runs:\n%v\n%v", a, b)
	}
	if len(a) != 6 { // 3 injects + 3 reverts
		t.Fatalf("event log = %v, want 6 lines", a)
	}
}
