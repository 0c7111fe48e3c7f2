package main

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/stats"
)

const (
	kvShards     = 3
	kvShardBytes = 32 << 20
	// 16384 payloads of mean 8 KiB are 128 MiB against 96 MiB of shard
	// capacity, so LRU eviction and misses stay live for the whole run.
	kvKeys    = 16384
	kvClients = 2
	kvWindow  = 32 // keys per MultiGet
	// kvOpsPerClientSecond sizes the fixed-work traffic of the traced
	// pass: about what one closed-loop client completes per second on the
	// 2-core CI box.
	kvOpsPerClientSecond = 6000
)

// kvTier is the kv side of a run: the dataset whose payloads are the
// values, three in-process shards on loopback, and the cluster client
// every non-test caller of the kv tier uses.
type kvTier struct {
	ds      *dataset.Dataset
	seed    uint64
	keys    []string
	servers []*kvstore.Server
	cluster *kvstore.Cluster
}

// startKV is one set-up cycle: generate the dataset, start the shards,
// connect and preload every key by MultiPut.
func startKV(seed uint64) (_ *kvTier, err error) {
	t := &kvTier{seed: seed}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	t.ds, err = dataset.Generate(dataset.Spec{
		Name: "kvbench", NumSamples: kvKeys, MeanSize: 8 << 10, SigmaLog: 0.3,
		MinSize: 1 << 10, Classes: 4, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	var addrs []string
	for i := 0; i < kvShards; i++ {
		s, err := kvstore.NewServer("127.0.0.1:0", kvShardBytes)
		if err != nil {
			return nil, err
		}
		t.servers = append(t.servers, s)
		addrs = append(addrs, s.Addr())
	}
	if t.cluster, err = kvstore.NewCluster(addrs, 1); err != nil {
		return nil, err
	}
	t.keys = make([]string, kvKeys)
	for i := range t.keys {
		t.keys[i] = "s" + strconv.Itoa(i)
	}
	const chunk = 256
	vals := make([][]byte, chunk)
	for lo := 0; lo < kvKeys; lo += chunk {
		for i := range vals {
			vals[i] = t.ds.Payload(dataset.SampleID(lo + i))
		}
		if err := t.cluster.MultiPut(t.keys[lo:lo+chunk], vals); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return t, nil
}

func (t *kvTier) close() {
	if t.cluster != nil {
		t.cluster.Close()
	}
	for _, s := range t.servers {
		_ = s.Close() // shards are being discarded; nothing to recover
	}
}

// kvTraffic is what one stretch of mixed traffic measured.
type kvTraffic struct {
	getUs, mgetUs, putUs []float64 // per-call latency, in completion order
	ops, failed          int
	hits, misses         int
	seconds              float64
	mallocs              uint64
	// windows cuts the stretch into short windows (see windowed): ops of
	// all kinds and process CPU per window, and the median Get latency.
	windows windowed
}

func (k *kvTraffic) opsPerS() float64 { return k.windows.rate() }

// add appends a later stretch to k.
func (k *kvTraffic) add(o *kvTraffic) {
	k.getUs = append(k.getUs, o.getUs...)
	k.mgetUs = append(k.mgetUs, o.mgetUs...)
	k.putUs = append(k.putUs, o.putUs...)
	k.ops += o.ops
	k.failed += o.failed
	k.hits += o.hits
	k.misses += o.misses
	k.seconds += o.seconds
	k.mallocs += o.mallocs
	k.windows.merge(o.windows)
}

const (
	kvGet = iota
	kvMultiGet
	kvPut
)

// kvOp is one completed call: when it returned (since the stretch
// began), how long it took, and which kind it was.
type kvOp struct {
	end  time.Duration
	us   float64
	kind uint8
}

// kvClient is one closed-loop caller's tally.
type kvClient struct {
	done                 []kvOp // in completion order
	failed, hits, misses int
}

// verify checks one returned value: a hit must be the key's payload.
func (t *kvTier) verify(val []byte, id int) bool {
	return int64(len(val)) == t.ds.Size(dataset.SampleID(id)) &&
		dataset.VerifyPayload(val, t.seed, dataset.SampleID(id)) == nil
}

// traffic runs kvClients closed-loop callers, each drawing 70% Get, 20%
// MultiGet of a kvWindow-key window and 10% Put from its own seeded RNG,
// for `seconds` (end-to-end pass) or, when seconds is 0, for
// opsPerClient calls each (traced pass: fixed work). A Put rewrites the
// key's own payload, so every hit stays checkable. The first client
// reads the process's CPU time whenever `window` has passed, between two
// of its calls; those readings are the window edges. With a ring, each
// call is recorded as a span on its client's track.
func (t *kvTier) traffic(seconds float64, opsPerClient int, window time.Duration, ring *obs.TraceRing) (*kvTraffic, error) {
	clients := make([]kvClient, kvClients)
	var wg sync.WaitGroup
	var mem0, mem1 goruntime.MemStats
	goruntime.ReadMemStats(&mem0)
	var edges []time.Duration
	var edgeCPU []float64
	var edgeErr error
	start := time.Now()
	edge := func() {
		cpu, err := cpuSeconds()
		if err != nil && edgeErr == nil {
			edgeErr = err
		}
		edges, edgeCPU = append(edges, time.Since(start)), append(edgeCPU, cpu)
	}
	edge()
	limit := time.Duration(seconds * float64(time.Second))
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &clients[c]
			rng := stats.NewRNG(stats.DeriveSeed(t.seed, 0xc11e+uint64(c)))
			tid := ring.NewThread("kv-client" + strconv.Itoa(c))
			put := make([]byte, 0, 64<<10)
			for n := 0; ; n++ {
				t0 := time.Now()
				since := t0.Sub(start)
				if seconds > 0 && since >= limit || seconds == 0 && n == opsPerClient {
					return
				}
				if c == 0 && since-edges[len(edges)-1] >= window {
					edge()
					t0 = time.Now()
				}
				mix, k := rng.Intn(100), rng.Intn(kvKeys)
				var name string
				var kind uint8
				var err error
				ok := true
				var d time.Duration
				switch {
				case mix < 70:
					name, kind = "get", kvGet
					val, hit, gerr := t.cluster.Get(t.keys[k])
					d, err = time.Since(t0), gerr
					if hit {
						cl.hits++
						ok = t.verify(val, k)
					} else {
						cl.misses++
					}
				case mix < 90:
					name, kind = "multiget", kvMultiGet
					if k > kvKeys-kvWindow {
						k = kvKeys - kvWindow
					}
					vals, gerr := t.cluster.MultiGet(t.keys[k : k+kvWindow])
					d, err = time.Since(t0), gerr
					for i, val := range vals {
						if val == nil {
							cl.misses++
							continue
						}
						cl.hits++
						ok = ok && t.verify(val, k+i)
					}
				default:
					name, kind = "put", kvPut
					put = put[:t.ds.Size(dataset.SampleID(k))]
					dataset.FillPayload(put, t.seed, dataset.SampleID(k))
					t0 = time.Now()
					err = t.cluster.Put(t.keys[k], put)
					d = time.Since(t0)
				}
				ring.Span(name, "kv", tid, t0, d)
				cl.done = append(cl.done, kvOp{end: t0.Add(d).Sub(start), us: d.Seconds() * 1e6, kind: kind})
				if err != nil || !ok {
					cl.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	edge()
	goruntime.ReadMemStats(&mem1)
	if edgeErr != nil {
		return nil, edgeErr
	}
	out := &kvTraffic{seconds: edges[len(edges)-1].Seconds(), mallocs: mem1.Mallocs - mem0.Mallocs}
	var all []kvOp
	for i := range clients {
		cl := &clients[i]
		all = append(all, cl.done...)
		out.failed += cl.failed
		out.hits += cl.hits
		out.misses += cl.misses
	}
	if out.ops = len(all); out.ops == 0 {
		return nil, fmt.Errorf("kv traffic completed no ops")
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	byKind := [...]*[]float64{kvGet: &out.getUs, kvMultiGet: &out.mgetUs, kvPut: &out.putUs}
	for _, op := range all {
		*byKind[op.kind] = append(*byKind[op.kind], op.us)
	}
	for i := 1; i < len(edges); i++ {
		ops := 0
		var gets []float64
		for c := range clients {
			done := clients[c].done
			lo := sort.Search(len(done), func(j int) bool { return done[j].end >= edges[i-1] })
			hi := sort.Search(len(done), func(j int) bool { return done[j].end >= edges[i] })
			ops += hi - lo
			for _, op := range done[lo:hi] {
				if op.kind == kvGet {
					gets = append(gets, op.us)
				}
			}
		}
		out.windows.add(ops, (edges[i] - edges[i-1]).Seconds(), edgeCPU[i]-edgeCPU[i-1], median(sortedCopy(gets)))
	}
	return out, nil
}

// runKV is the kv-mixed workload: either the end-to-end pass or the
// traced pass.
func runKV(a runArgs) (*result, error) {
	res := &result{layers: map[string]float64{}}
	// Every cycle but the last is torn down again; its garbage is
	// collected before the next one starts so that peak RSS is the
	// steady tier's, not two tiers' worth of payloads.
	var tier *kvTier
	var setups []float64
	for i := 0; i < a.cycles(); i++ {
		if tier != nil {
			tier.close()
			tier = nil
			goruntime.GC()
		}
		start := time.Now()
		var err error
		if tier, err = startKV(a.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer tier.close()
	if a.traced {
		return res, tier.tracedPass(a, res)
	}
	tr, err := tier.traffic(a.seconds, 0, a.window(), nil)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = tr.ops, tr.failed
	res.rows = []row{
		{Name: "kv_ops_per_s", Unit: "1/s", Value: tr.opsPerS(), N: tr.windows.n(), Slot: "throughput_per_s"},
		{Name: "kv_get_p50_us", Unit: "us", Value: tr.windows.latency(), N: tr.windows.n(), Slot: "op_p50_ms", Scale: 1e-3},
		{Name: "kv_get_p99_us", Unit: "us", Value: res.tail("kv_get_p99_us", tr.getUs, 99), N: len(tr.getUs), Slot: "op_p99_ms", Scale: 1e-3},
		{Name: "kv_multiget_p99_us", Unit: "us", Value: res.tail("kv_multiget_p99_us", tr.mgetUs, 99), N: len(tr.mgetUs)},
		{Name: "kv_put_p99_us", Unit: "us", Value: res.tail("kv_put_p99_us", tr.putUs, 99), N: len(tr.putUs)},
		{Name: "kv_cpu_ms_per_kop", Unit: "ms", Value: tr.windows.cpuPerOp() * 1e6, N: tr.windows.n(), Slot: "cpu_ms_per_kop"},
		{Name: "kv_ops_per_s_mean", Unit: "1/s", Value: float64(tr.ops) / tr.seconds},
		{Name: "kv_get_p50_us_all", Unit: "us", Value: median(sortedCopy(tr.getUs)), N: len(tr.getUs)},
		{Name: "steady_s", Unit: "s", Value: tr.seconds},
		{Name: "kv_hit_ratio", Unit: "share", Value: float64(tr.hits) / float64(tr.hits+tr.misses)},
	}
	return res, res.finish(setups)
}

// tracedPass measures the wire floor, then runs the mixed traffic as
// fixed work four times — plain, traced, traced, plain, so that drift in
// the tier's state is charged to both sides equally. Traced means the
// cluster's client instruments are recording and every call is recorded
// as a span from here; plain means the registry is switched off.
func (t *kvTier) tracedPass(a runArgs, res *result) error {
	l := res.layers
	if err := kvCeilings(t, ceilingBudget(a.seconds), l); err != nil {
		return err
	}
	ops := int(kvOpsPerClientSecond*a.seconds/8) + 1
	reg, ring := obs.NewRegistry(), obs.NewTraceRing(traceEvents)
	t.cluster.Instrument(reg)
	var plain, traced kvTraffic
	for _, on := range []bool{false, true, true, false} {
		reg.SetEnabled(on)
		side, spans := &plain, (*obs.TraceRing)(nil)
		if on {
			side, spans = &traced, ring
		}
		tr, err := t.traffic(0, ops, a.window(), spans)
		if err != nil {
			return err
		}
		side.add(tr)
		res.attempted += tr.ops
		res.failed += tr.failed
	}
	if err := writeTrace(ring, a.outDir, "kv-mixed"); err != nil {
		return err
	}
	m, err := scrape(reg)
	if err != nil {
		return err
	}
	for _, op := range []string{"get", "multiget", "put"} {
		l["kvstore.client_"+op+"_s"] = m.Sum("lobster_kvstore_op_seconds_sum", map[string]string{"op": op})
	}
	l["kvstore.get_p999_us"] = res.tail("kvstore.get_p999_us", plain.getUs, 99.9)
	l["kvstore.multiget_p99_us"] = res.tail("kvstore.multiget_p99_us", plain.mgetUs, 99)
	l["kvstore.put_p99_us"] = res.tail("kvstore.put_p99_us", plain.putUs, 99)
	l["kvstore.allocs_per_op"] = float64(plain.mallocs) / float64(plain.ops)
	l["obs.enabled_overhead_pct"] = (1 - traced.opsPerS()/plain.opsPerS()) * 100
	st, err := t.cluster.Stats()
	if err != nil {
		return fmt.Errorf("cluster stats: %w", err)
	}
	if lookups := st.Hits + st.Misses; lookups > 0 {
		l["kvstore.hit_ratio"] = float64(st.Hits) / float64(lookups)
	}
	l["kvstore.evictions"] = float64(st.Evictions)
	l["kvstore.shed_total"] = float64(st.ShedDeadline + st.ShedQuota + st.ShedQueue)
	return nil
}
