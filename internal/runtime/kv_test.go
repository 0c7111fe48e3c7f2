package runtime

import (
	"strings"
	"testing"
	"time"

	"repro/internal/doctor"
	"repro/internal/kvstore"
	"repro/internal/loader"
	"repro/internal/obs"
)

func TestKVClusterAsSharedCacheTier(t *testing.T) {
	// Three shards back the shared tier; two nodes miss into it.
	var addrs []string
	for i := 0; i < 3; i++ {
		s, err := kvstore.NewServer("127.0.0.1:0", 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		addrs = append(addrs, s.Addr())
	}
	cluster, err := kvstore.NewCluster(addrs, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	opts := testOptions(t, loader.Lobster(), 2, 2)
	opts.KVCache = cluster
	nodes := captureNodes(t)
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The helpers stage whole windows through MultiGet and the loading
	// workers single ids through fetch, on one feed: whoever was stopped
	// mid-window at teardown, nothing stays claimed.
	checkTeardown(t, "KVCache run", *nodes)
	for _, node := range *nodes {
		if !node.workAhead {
			t.Errorf("node %d: work-ahead off for a dynamic strategy with a KVCache", node.node)
		}
	}
	if stats.WorkAhead > stats.Prefetched {
		t.Errorf("WorkAhead %d exceeds Prefetched %d", stats.WorkAhead, stats.Prefetched)
	}
	want := uint64(stats.Iterations) * uint64(4*opts.Model.BatchSize)
	if stats.SamplesVerified != want {
		t.Fatalf("verified %d, want %d", stats.SamplesVerified, want)
	}
	checkOracle(t, opts, stats)
	// Node B must find node A's PFS write-backs in the cluster.
	if stats.RemoteHits == 0 {
		t.Fatal("no KV-cluster hits across nodes")
	}
	st, err := cluster.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Items == 0 || st.Hits == 0 {
		t.Fatalf("cluster unused: %+v", st)
	}
}

// TestKVDemandReadsSkipLaggedWindows lags every MultiGet the shards serve
// by 40ms, so the prefetch helpers' windows fall behind and demand misses
// reach the tier while windows are in flight — the paper's premise that
// prefetching uses spare capacity and demand loads never wait on it. The
// mean peer_fetch time the ledger charges per demand kv read must stay
// far below the lag: a demand Get that queued behind a window would pay
// the rest of it.
func TestKVDemandReadsSkipLaggedWindows(t *testing.T) {
	const lag = 40 * time.Millisecond
	var addrs []string
	for i := 0; i < 2; i++ {
		s, err := kvstore.NewServer("127.0.0.1:0", 8<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.SetFault(kvstore.FaultConfig{Lag: lag, Ops: kvstore.FaultMultiGet})
		addrs = append(addrs, s.Addr())
	}
	cluster, err := kvstore.NewCluster(addrs, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	opts := testOptions(t, loader.Lobster(), 2, 1)
	opts.KVCache = cluster
	reg := obs.NewRegistry()
	opts.Obs = reg
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	if stats.CacheMisses == 0 {
		t.Fatal("no demand read reached the kv tier")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	m, err := doctor.ParseMetrics(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	peer := m.Sum("lobster_runtime_stall_peer_fetch_seconds_sum", nil)
	mean := time.Duration(peer / float64(stats.CacheMisses) * float64(time.Second))
	t.Logf("mean demand peer_fetch %v per kv read over %d reads", mean, stats.CacheMisses)
	if mean >= lag/4 {
		t.Fatalf("mean demand peer_fetch %v per kv read (%d reads) behind MultiGets lagged %v, want < %v",
			mean, stats.CacheMisses, lag, lag/4)
	}
}

// TestPrefetchFeedDrainedWhenKVWindowStops stops the run while a helper
// holds a whole claimed window on the KV path: the claims it never got to
// leave the in-flight set, because the loading workers still read the
// feed after the helpers are gone.
func TestPrefetchFeedDrainedWhenKVWindowStops(t *testing.T) {
	s, err := kvstore.NewServer("127.0.0.1:0", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cluster, err := kvstore.NewCluster([]string{s.Addr()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	node, _ := loaderFixture(t, newFakeClock())
	node.rt.kv = cluster
	claims := node.feed.claim(0, node.feed.depth, feedGPUs*feedBatch, nil)
	if len(claims) != feedGPUs*feedBatch {
		t.Fatalf("claimed %d ids, want window 2's %d", len(claims), feedGPUs*feedBatch)
	}
	close(node.stopPref)
	node.prefetchWindowKV(claims, 0, nil)
	if got := node.prefetched.Load(); got != 0 {
		t.Errorf("%d ids staged after the stop", got)
	}
	if got := node.feed.pauseCount(); got != 0 {
		t.Errorf("abandoned claims paused the feed %d times", got)
	}
	checkTeardown(t, "stopped KV window", []*nodeRuntime{node})
}
