package kvstore

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Cluster shards keys across several servers by FNV-1a hash — the
// KV-store alternative to the node-to-node distribution manager. Batch
// ops group keys by shard and fan the per-shard batches out
// concurrently, one round trip per shard.
type Cluster struct {
	clients []*Client

	// repl is the read-replica count: each key's value is written
	// through to the repl shards after its primary in ring order, and
	// reads may hedge to the first replica (hedge.go). 0 = no
	// replication.
	repl  int
	hedge *hedgeTracker

	// down marks shards the caller knows are lost (SetShardDown): reads
	// route past them along the replica ring, writes skip them, and
	// hedges never pick them. This is client-side routing state only —
	// the recovery half is Repair, which re-replicates keys once the
	// shard map changes.
	down []atomic.Bool

	// hedgeFired counts hedge requests actually sent; hedgeWon counts
	// races the hedge arm won. fired >> won means the delay is too
	// aggressive; won ≈ fired means the primary is genuinely slow.
	hedgeFired atomic.Uint64
	hedgeWon   atomic.Uint64

	// scratch pools the per-shard grouping state MultiGet/MultiPut
	// rebuild on every call, so the prefetch hot path stops allocating.
	scratch sync.Pool
}

// HedgeCounters snapshots the cluster's hedged-read counters.
func (c *Cluster) HedgeCounters() (fired, won uint64) {
	return c.hedgeFired.Load(), c.hedgeWon.Load()
}

// clusterScratch is one batch op's reusable grouping state.
type clusterScratch struct {
	keys  [][]string // per shard: keys routed there
	vals  [][][]byte // per shard: values routed there (MultiPut)
	idx   [][]int    // per shard: original positions
	hedge []int      // per shard: group hedge target, -1 = none
}

// NewCluster connects to every shard address (conns multiplexed
// connections per shard and lane, see Client).
func NewCluster(addrs []string, conns int) (*Cluster, error) {
	return NewClusterConfig(addrs, ClusterConfig{Conns: conns})
}

// ClusterConfig configures a cluster beyond its shard addresses.
type ClusterConfig struct {
	// Conns is the number of multiplexed connections per shard and lane
	// (min 1; see ClientOptions).
	Conns int
	// Window is the per-connection in-flight cap (see ClientOptions).
	Window int
	// Replicas is the read-replica count per key: writes go through to
	// this many extra shards (ring order after the primary) and reads
	// may hedge to the first replica. Clamped to Shards-1; 0 disables
	// replication and hedging.
	Replicas int
	// HedgeDelay, when > 0, fixes the hedge delay. 0 selects the
	// adaptive policy: a tracked quantile of recent primary-read
	// latencies, clamped to [HedgeMin, HedgeMax].
	HedgeDelay time.Duration
	// HedgeQuantile is the tracked latency quantile the adaptive delay
	// follows (default 0.95).
	HedgeQuantile float64
	// HedgeMin and HedgeMax clamp the adaptive delay (defaults 200µs
	// and 5ms).
	HedgeMin, HedgeMax time.Duration
}

// NewClusterConfig connects a cluster with explicit options, including
// read replication and hedged reads (hedge.go).
func NewClusterConfig(addrs []string, cfg ClusterConfig) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("kvstore: no shard addresses")
	}
	c := &Cluster{}
	shards := len(addrs)
	c.down = make([]atomic.Bool, shards)
	c.scratch.New = func() any {
		return &clusterScratch{
			keys:  make([][]string, shards),
			vals:  make([][][]byte, shards),
			idx:   make([][]int, shards),
			hedge: make([]int, shards),
		}
	}
	for _, addr := range addrs {
		cl, err := NewClientOptions(addr, ClientOptions{Conns: cfg.Conns, Window: cfg.Window})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	if cfg.Replicas >= shards {
		cfg.Replicas = shards - 1
	}
	if cfg.Replicas > 0 {
		c.repl = cfg.Replicas
		c.hedge = newHedgeTracker(cfg.HedgeDelay, cfg.HedgeQuantile, cfg.HedgeMin, cfg.HedgeMax)
	}
	return c, nil
}

// shardIndex picks the shard for a key.
func (c *Cluster) shardIndex(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key)) // hash.Hash.Write never returns an error
	return int(h.Sum32()) % len(c.clients)
}

// SetShardDown marks shard s lost (true) or restored (false) in the
// cluster's routing: reads route past a down shard along its replica
// ring, writes skip it, hedges never pick it. Marking a shard down is
// the client half of surviving a crash; call Repair after the shard
// map changes to restore lost replica copies. Safe to call while ops
// are in flight.
func (c *Cluster) SetShardDown(s int, down bool) {
	if s < 0 || s >= len(c.down) {
		return
	}
	c.down[s].Store(down)
}

// ShardDown reports whether shard s is marked down.
func (c *Cluster) ShardDown(s int) bool {
	return s >= 0 && s < len(c.down) && c.down[s].Load()
}

func (c *Cluster) isDown(s int) bool { return c.down[s].Load() }

// routeIndex picks the shard to read a key from: its primary, or —
// when the primary is marked down — the first live ring member after
// it. With replication the first repl successors hold the key's
// write-through copies; past them the walk degrades to a clean miss,
// which is correct for a cache tier (the caller falls to the PFS).
func (c *Cluster) routeIndex(key string) int {
	return c.routeFrom(c.shardIndex(key))
}

func (c *Cluster) routeFrom(s0 int) int {
	n := len(c.clients)
	for r := 0; r < n; r++ {
		t := (s0 + r) % n
		if !c.isDown(t) {
			return t
		}
	}
	return s0 // every shard marked down: let the op fail at the primary
}

// hedgeIndex picks the shard a read routed to `routed` may hedge to:
// the first live holder of the key's write-through copies (primary s0
// plus its repl ring successors) other than the routed shard itself.
// Returns -1 when no other live copy-holder exists — hedging to a
// shard outside the key's replication window would race its clean miss
// against the real copy and sometimes win.
func (c *Cluster) hedgeIndex(s0, routed int) int {
	if c.repl <= 0 {
		return -1
	}
	n := len(c.clients)
	for r := 0; r <= c.repl; r++ {
		t := (s0 + r) % n
		if t != routed && !c.isDown(t) {
			return t
		}
	}
	return -1
}

// Get fetches a key from its shard (routing past down shards), hedging
// to another live copy-holder when replication is configured.
func (c *Cluster) Get(key string) ([]byte, bool, error) { return c.GetTraced(key, 0) }

// GetTraced is Get carrying a trace context onto the wire, so the
// serving shard's span records the originating rank/iter. Hedged reads
// stay untraced: the hedge arms race on two shards and a per-arm span
// would double-count the read.
func (c *Cluster) GetTraced(key string, tctx obs.TraceCtx) ([]byte, bool, error) {
	s0 := c.shardIndex(key)
	s := c.routeFrom(s0)
	if h := c.hedgeIndex(s0, s); h >= 0 {
		return c.hedgedGet(c.clients[s], c.clients[h], key)
	}
	return c.clients[s].GetTraced(key, tctx)
}

// Put stores a key on its shard and writes through to its replicas,
// skipping shards marked down. Replica writes are best-effort: a
// failed replica degrades a future hedge to a cache miss, it does not
// fail the write. The first live write's error is returned (the
// primary's, unless the primary is down).
func (c *Cluster) Put(key string, val []byte) error {
	s := c.shardIndex(key)
	var err error
	wrote := false
	for r := 0; r <= c.repl; r++ {
		t := (s + r) % len(c.clients)
		if c.isDown(t) {
			continue
		}
		e := c.clients[t].Put(key, val)
		if !wrote {
			err, wrote = e, true
		}
	}
	if !wrote {
		return fmt.Errorf("kvstore: every shard for key %q is marked down", key)
	}
	return err
}

// Delete removes a key from its shard and its replicas, skipping
// shards marked down.
func (c *Cluster) Delete(key string) error {
	s := c.shardIndex(key)
	var err error
	wrote := false
	for r := 0; r <= c.repl; r++ {
		t := (s + r) % len(c.clients)
		if c.isDown(t) {
			continue
		}
		e := c.clients[t].Delete(key)
		if !wrote {
			err, wrote = e, true
		}
	}
	if !wrote {
		return fmt.Errorf("kvstore: every shard for key %q is marked down", key)
	}
	return err
}

// Repair re-replicates keys after a shard loss or revival: each key
// whose value survives on any live member of its replica ring is
// rewritten through the whole live ring, restoring the copies a dead
// shard took with it and warming a revived shard's cold store. Keys no
// live member holds are skipped — they re-enter the tier through the
// normal PFS write-back path. Returns how many keys were restored and
// the first error encountered (the repair continues past errors).
func (c *Cluster) Repair(keys []string) (restored int, err error) {
	n := len(c.clients)
	for _, key := range keys {
		s := c.shardIndex(key)
		var val []byte
		found := false
		for r := 0; r <= c.repl && !found; r++ {
			t := (s + r) % n
			if c.isDown(t) {
				continue
			}
			v, ok, gerr := c.clients[t].Get(key)
			if gerr != nil {
				if err == nil {
					err = gerr
				}
				continue
			}
			if ok {
				val, found = v, true
			}
		}
		if !found {
			continue
		}
		wrote := false
		for r := 0; r <= c.repl; r++ {
			t := (s + r) % n
			if c.isDown(t) {
				continue
			}
			if perr := c.clients[t].Put(key, val); perr != nil {
				if err == nil {
					err = perr
				}
			} else {
				wrote = true
			}
		}
		if wrote {
			restored++
		}
	}
	return restored, err
}

// Shards returns the number of shards.
func (c *Cluster) Shards() int { return len(c.clients) }

// shardMultiGet runs one shard's batch, hedged to the group's hedge
// shard h when one exists (h < 0 = plain read). A valid tctx rides the
// unhedged read only (see GetTraced).
func (c *Cluster) shardMultiGet(s, h int, keys []string, tctx obs.TraceCtx) ([][]byte, error) {
	if h >= 0 {
		return c.hedgedMultiGet(c.clients[s], c.clients[h], keys)
	}
	return c.clients[s].MultiGetTraced(keys, tctx)
}

// MultiGet fetches a batch of keys: grouped by shard, fanned out
// concurrently (one round trip per shard), reassembled in request
// order. vals[i] is nil when keys[i] is absent and non-nil (possibly
// empty) when present. When some — but not all — shard batches fail,
// the healthy shards' values are returned alongside a *PartialError, so
// tolerant callers keep what arrived.
func (c *Cluster) MultiGet(keys []string) ([][]byte, error) { return c.MultiGetTraced(keys, 0) }

// MultiGetTraced is MultiGet carrying a trace context onto the wire for
// every unhedged shard batch (see GetTraced).
func (c *Cluster) MultiGetTraced(keys []string, tctx obs.TraceCtx) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if len(c.clients) == 1 {
		return c.shardMultiGet(0, -1, keys, tctx)
	}
	sc := c.scratch.Get().(*clusterScratch)
	defer c.putScratch(sc)
	for i, key := range keys {
		s0 := c.shardIndex(key)
		s := c.routeFrom(s0) // route past down shards per key
		h := c.hedgeIndex(s0, s)
		if len(sc.keys[s]) == 0 {
			sc.hedge[s] = h
		} else if sc.hedge[s] != h {
			// Keys with different live copy-holders landed on this
			// routed shard (some re-routed off a down primary): no
			// single hedge target serves them all, so the group reads
			// unhedged rather than risk a spurious miss.
			sc.hedge[s] = -1
		}
		sc.keys[s] = append(sc.keys[s], key)
		sc.idx[s] = append(sc.idx[s], i)
	}
	out := make([][]byte, len(keys))
	var wg sync.WaitGroup
	errs := make([]error, len(c.clients))
	for s := range c.clients {
		if len(sc.keys[s]) == 0 {
			continue
		}
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals, err := c.shardMultiGet(s, sc.hedge[s], sc.keys[s], tctx)
			if err != nil {
				errs[s] = err
				return
			}
			for j, v := range vals {
				out[sc.idx[s][j]] = v
			}
		}()
	}
	wg.Wait()
	var firstErr error
	attempted, failed := 0, 0
	for s := range c.clients {
		if len(sc.keys[s]) == 0 {
			continue
		}
		attempted++
		if errs[s] != nil {
			failed++
			if firstErr == nil {
				firstErr = errs[s]
			}
		}
	}
	switch {
	case failed == 0:
		return out, nil
	case failed == attempted:
		return nil, firstErr
	default:
		return out, &PartialError{Failed: failed, Attempted: attempted, Err: firstErr}
	}
}

// MultiPut stores a batch of key/value pairs, grouped by shard and
// fanned out concurrently; with replication each pair is written
// through to its replicas' batches too. Storage is best-effort per key;
// the first error is returned after every shard's batch completes.
func (c *Cluster) MultiPut(keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("kvstore: MultiPut got %d keys, %d values", len(keys), len(vals))
	}
	if len(keys) == 0 {
		return nil
	}
	if len(c.clients) == 1 {
		return c.clients[0].MultiPut(keys, vals)
	}
	sc := c.scratch.Get().(*clusterScratch)
	defer c.putScratch(sc)
	for i, key := range keys {
		s := c.shardIndex(key)
		for r := 0; r <= c.repl; r++ {
			t := (s + r) % len(c.clients)
			if c.isDown(t) {
				continue // best-effort: a down shard just loses the copy
			}
			sc.keys[t] = append(sc.keys[t], key)
			sc.vals[t] = append(sc.vals[t], vals[i])
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(c.clients))
	for s, cl := range c.clients {
		if len(sc.keys[s]) == 0 {
			continue
		}
		s, cl := s, cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = cl.MultiPut(sc.keys[s], sc.vals[s])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// putScratch clears and recycles a grouping scratch. Value references
// are nilled so the pool never pins payload bytes across calls.
func (c *Cluster) putScratch(sc *clusterScratch) {
	for s := range sc.keys {
		for j := range sc.vals[s] {
			sc.vals[s][j] = nil
		}
		sc.keys[s] = sc.keys[s][:0]
		sc.vals[s] = sc.vals[s][:0]
		sc.idx[s] = sc.idx[s][:0]
	}
	c.scratch.Put(sc)
}

// Stats aggregates all shards' counters.
func (c *Cluster) Stats() (Stats, error) {
	var total Stats
	for _, cl := range c.clients {
		st, err := cl.Stats()
		if err != nil {
			return Stats{}, err
		}
		total.Items += st.Items
		total.UsedBytes += st.UsedBytes
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		total.TooLarge += st.TooLarge
		total.ShedDeadline += st.ShedDeadline
		total.ShedQuota += st.ShedQuota
		total.ShedQueue += st.ShedQueue
	}
	return total, nil
}

// Close closes every shard client.
func (c *Cluster) Close() {
	for _, cl := range c.clients {
		cl.Close()
	}
}
