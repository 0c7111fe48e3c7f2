package runtime

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/loader"
	"repro/internal/preproc"
	"repro/internal/tier"
)

func testOptions(t testing.TB, spec loader.Spec, nodes, epochs int) Options {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "rt", NumSamples: 512, MeanSize: 8 << 10, SigmaLog: 0.3,
		MinSize: 1 << 10, Classes: 4, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := cluster.Topology{
		Nodes:       nodes,
		GPUsPerNode: 2,
		CPUThreads:  8,
		CacheBytes:  ds.TotalBytes() / 3,
		NUMADomains: 2,
		Hierarchy:   tier.ThetaGPULike(),
	}
	model := cluster.DNNModel{Name: "toy", IterTime: 0.004, BatchSize: 8, TargetAccuracy: 0.7, ConvergeEpochs: 10}
	return Options{
		Topology:  top,
		Dataset:   ds,
		Model:     model,
		Epochs:    epochs,
		Seed:      77,
		Strategy:  spec,
		TimeScale: 0.02,
	}
}

func TestRunValidation(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 1, 1)
	bad := opts
	bad.Dataset = nil
	if _, err := Run(bad); err == nil {
		t.Error("nil dataset accepted")
	}
	bad = opts
	bad.Epochs = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero epochs accepted")
	}
	bad = opts
	bad.Topology.Nodes = 0
	if _, err := Run(bad); err == nil {
		t.Error("bad topology accepted")
	}
	bad = opts
	bad.Model.IterTime = 0
	if _, err := Run(bad); err == nil {
		t.Error("zero iteration time accepted by a dynamic strategy")
	}
}

// TestBuildErrorLeavesNoGoroutines fails the build in the thread manager
// (Tau = 5% of a zero IterTime). Whatever the build had started by then
// — prefetchers, loading workers, preprocessing pool — must
// be stopped again before Run returns the error.
func TestBuildErrorLeavesNoGoroutines(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 2, 1)
	opts.Model.IterTime = 0
	base := goruntime.NumGoroutine()
	if _, err := Run(opts); err == nil {
		t.Fatal("zero iteration time accepted")
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed build, %d before it", goruntime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSingleNodeLobsterEndToEnd(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 1, 3)
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	world := opts.Topology.WorldSize()
	wantSamples := uint64(stats.Iterations) * uint64(world*opts.Model.BatchSize)
	if stats.SamplesLoaded != wantSamples {
		t.Fatalf("loaded %d samples, want %d", stats.SamplesLoaded, wantSamples)
	}
	if stats.SamplesVerified != wantSamples {
		t.Fatalf("verified %d samples, want %d (every tensor must verify)", stats.SamplesVerified, wantSamples)
	}
	if stats.CacheHits+stats.CacheMisses != wantSamples {
		t.Fatalf("cache lookups %d != samples %d", stats.CacheHits+stats.CacheMisses, wantSamples)
	}
	if stats.HitRatio() <= 0 {
		t.Fatal("no cache hits at all after three epochs")
	}
	if stats.Prefetched == 0 {
		t.Fatal("Lobster never prefetched")
	}
	if stats.WallTime <= 0 {
		t.Fatal("wall time not measured")
	}
}

func TestMultiNodeRemoteHits(t *testing.T) {
	// Demand-only loading makes peer fetches structural rather than a
	// race: after epoch 1, every sample is cached on the node that used
	// it, and the shuffle reassigns most samples to a different node —
	// whose miss must find the peer copy through the directory.
	opts := testOptions(t, loader.PyTorch(2, 8), 3, 3)
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RemoteHits == 0 {
		t.Fatal("no peer-cache fetches on a 3-node run with generous caches")
	}
	// Peer reads copy straight out of the holder's cache: the bytes they
	// deliver must decode to what the schedule names.
	checkOracle(t, opts, stats)
	if stats.PFSReads == 0 {
		t.Fatal("PFS never used (first epoch must miss)")
	}
}

func TestAllStrategiesComplete(t *testing.T) {
	for _, spec := range []loader.Spec{
		loader.PyTorch(2, 8),
		loader.DALI(8),
		loader.NoPFS(2, 8),
		loader.Lobster(),
		loader.LobsterTh(),
	} {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			opts := testOptions(t, spec, 1, 2)
			stats, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(stats.Iterations) * uint64(2*opts.Model.BatchSize)
			if stats.SamplesVerified != want {
				t.Fatalf("verified %d, want %d", stats.SamplesVerified, want)
			}
			checkOracle(t, opts, stats)
		})
	}
}

func TestDynamicControllerAdjustsThreads(t *testing.T) {
	opts := testOptions(t, loader.Lobster(), 1, 2)
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, opts, stats)
	if len(stats.FinalPreprocThreads) != 1 || stats.FinalPreprocThreads[0] < 1 {
		t.Fatalf("no preprocessing threads recorded: %v", stats.FinalPreprocThreads)
	}
	total := stats.FinalPreprocThreads[0]
	for _, l := range stats.FinalLoadThreads[0] {
		if l < 1 {
			t.Fatalf("GPU with %d loading threads", l)
		}
		total += l
	}
	if total > opts.Topology.CPUThreads {
		t.Fatalf("final thread total %d exceeds budget %d", total, opts.Topology.CPUThreads)
	}
}

func TestThrottleSerializes(t *testing.T) {
	clk := defaultClock()
	th := newThrottle(1.0, clk)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clk.until(clk.deadline(0, th.reserve(0.01, 0, 0))) // 10 ms each
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 35*time.Millisecond {
		t.Fatalf("4 x 10ms reservations finished in %v; throttle not serializing", elapsed)
	}
}

func TestDirectory(t *testing.T) {
	d, err := NewDirectory(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDirectory(10, 65); err == nil {
		t.Fatal("65 nodes accepted")
	}
	d.Add(1, 5)
	if got := d.Holder(5, 0); got != 1 {
		t.Fatalf("Holder = %d, want 1", got)
	}
	if got := d.Holder(5, 1); got != -1 {
		t.Fatalf("Holder excluding self = %d, want -1", got)
	}
	if !d.IsLastCopy(1, 5) {
		t.Fatal("sole holder not last copy")
	}
	d.Add(2, 5)
	if d.IsLastCopy(1, 5) {
		t.Fatal("replicated sample reported last copy")
	}
	d.Remove(1, 5)
	if got := d.Holder(5, 0); got != 2 {
		t.Fatalf("after remove, Holder = %d, want 2", got)
	}
}

// usesLeft is a future-access oracle in which the listed samples have one
// use left, at the next iteration, and every other sample has none.
type usesLeft map[dataset.SampleID]bool

func (o usesLeft) Future(id dataset.SampleID, after cache.Iter) (cache.Iter, int) {
	if o[id] {
		return after + 1, 1
	}
	return cache.NoAccess, 0
}

func (usesLeft) IterationsPerEpoch() int { return 100 }

// TestLastCopyAtInsertExpiresBoth pins a known divergence (DESIGN.md §6):
// the Lobster policy asks IsLastCopy from inside cache.Put, before put
// adds the node to the directory. A sample inserted at its last use is
// therefore never "the last copy": node 0 expires the group's only copy
// of sample 1 as well as its second copy of sample 2. The rule of Section
// 4.4 ("keep iff no other node holds it") would keep sample 1.
func TestLastCopyAtInsertExpiresBoth(t *testing.T) {
	dir, err := NewDirectory(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*nodeCache, 2)
	for n, plan := range []usesLeft{{}, {2: true}} {
		if nodes[n], err = newNodeCache(n, 4, 1<<20, buildNodePolicy(loader.Lobster(), plan, n, dir), dir); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].put(2, preproc.GetPayloadBuf(64), 0, false)
	nodes[0].put(1, preproc.GetPayloadBuf(64), 0, false) // the group's only copy
	nodes[0].put(2, preproc.GetPayloadBuf(64), 0, false) // node 1 holds another
	for _, nc := range nodes {
		nc.maintain(0)
	}
	if nodes[0].contains(1) || nodes[0].contains(2) {
		t.Fatalf("node 0 kept sample 1: %v, sample 2: %v; today it expires both",
			nodes[0].contains(1), nodes[0].contains(2))
	}
	if !nodes[1].contains(2) {
		t.Fatal("node 1 lost a sample it uses again")
	}
}

func TestPFSStoreServesValidPayloads(t *testing.T) {
	ds, _ := dataset.Generate(dataset.Spec{
		Name: "p", NumSamples: 10, MeanSize: 4 << 10, Classes: 1, Seed: 5,
	})
	store := NewPFSStore(ds, 5, tier.ThetaGPULike().PFS, 0.001)
	p, err := store.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.VerifyPayload(p, 5, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Read(100); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if store.Ops() != 1 {
		t.Fatalf("ops = %d, want 1", store.Ops())
	}
}

// TestFaultFreeRunHasNoFailovers: a failover is a broken promise, and a
// run without faults breaks none. A peer that evicted a sample after the
// directory named it is an eviction race, read from the PFS as a normal
// miss.
func TestFaultFreeRunHasNoFailovers(t *testing.T) {
	peerHits := uint64(0)
	for _, spec := range []loader.Spec{loader.PyTorch(2, 8), loader.Lobster()} {
		opts := testOptions(t, spec, 3, 3)
		stats, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, opts, stats)
		peerHits += stats.RemoteHits
		if stats.Failovers != 0 {
			t.Errorf("%s: fault-free run reports %d failovers (%d eviction races)", spec.Name, stats.Failovers, stats.EvictionRaces)
		}
		t.Logf("%s: %d peer hits, %d eviction races", spec.Name, stats.RemoteHits, stats.EvictionRaces)
	}
	if peerHits == 0 {
		t.Fatal("no peer hits: the runs exercised no peer read")
	}
}

// TestCorruptPeerCopiesFallToPFS corrupts one byte of every third peer
// copy: each corrupt copy must fail verification, go back to the pool
// and be replaced by a PFS read charged as a failover, so the run trains
// on exactly the fault-free data.
func TestCorruptPeerCopiesFallToPFS(t *testing.T) {
	opts := testOptions(t, loader.PyTorch(2, 8), 3, 3)
	clean, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	var copies, corrupted atomic.Int64
	peerCopyHook = func(payload []byte) {
		if copies.Add(1)%3 == 0 {
			payload[len(payload)/2] ^= 0x20
			corrupted.Add(1)
		}
	}
	t.Cleanup(func() { peerCopyHook = nil })
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted.Load() == 0 {
		t.Fatalf("no peer copy corrupted (%d copies): the test exercised nothing", copies.Load())
	}
	if stats.DataFold != clean.DataFold {
		t.Errorf("DataFold %#x, fault-free run %#x", stats.DataFold, clean.DataFold)
	}
	checkOracle(t, opts, stats)
	if stats.Failovers < uint64(corrupted.Load()) {
		t.Errorf("failovers %d < %d corrupted peer copies", stats.Failovers, corrupted.Load())
	}
}
