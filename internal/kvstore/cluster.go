package kvstore

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/obs"
)

// Cluster shards keys across several servers by FNV-1a hash — the
// KV-store alternative to the node-to-node distribution manager. Every
// op goes to its key's shard and nowhere else. Batch ops group keys by
// shard and fan the per-shard batches out concurrently, one round trip
// per shard. The methods take no context yet, so each shard call runs
// under context.TODO(): no deadline, shed retries bounded by
// retryAttempts.
type Cluster struct {
	clients []*Client

	// scratch pools the per-shard grouping state MultiGet/MultiPut
	// rebuild on every call, so the prefetch hot path stops allocating.
	scratch sync.Pool
}

// clusterScratch is one batch op's reusable grouping state.
type clusterScratch struct {
	keys [][]string // per shard: keys routed there
	vals [][][]byte // per shard: values routed there (MultiPut)
	idx  [][]int    // per shard: original positions
}

// PartialError reports a cluster batch op that failed on some shards
// while others succeeded. The values returned alongside it hold the
// healthy shards' results (failed shards' entries are nil, i.e. cache
// misses), so callers that can tolerate partial data — the runtime's
// prefetcher — keep what arrived instead of discarding the batch.
type PartialError struct {
	// Failed and Attempted count per-shard batches in the fan-out.
	Failed    int
	Attempted int
	// Err is the first per-shard error.
	Err error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("kvstore: %d/%d shard batches failed: %v", e.Failed, e.Attempted, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// NewCluster connects to every shard address (conns multiplexed
// connections per shard and lane, see Client).
func NewCluster(addrs []string, conns int) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("kvstore: no shard addresses")
	}
	c := &Cluster{}
	shards := len(addrs)
	c.scratch.New = func() any {
		return &clusterScratch{
			keys: make([][]string, shards),
			vals: make([][][]byte, shards),
			idx:  make([][]int, shards),
		}
	}
	for _, addr := range addrs {
		cl, err := NewClient(addr, conns)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// shardIndex picks the shard for a key.
func (c *Cluster) shardIndex(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key)) // hash.Hash.Write never returns an error
	// Reduce in uint32 first: on 32-bit platforms int(h.Sum32()) can be
	// negative.
	return int(h.Sum32() % uint32(len(c.clients)))
}

// Get fetches a key from its shard.
func (c *Cluster) Get(key string) ([]byte, bool, error) { return c.GetTraced(key, 0) }

// GetTraced is Get carrying a trace context onto the wire, so the
// serving shard's span records the originating rank/iter.
func (c *Cluster) GetTraced(key string, tctx obs.TraceCtx) ([]byte, bool, error) {
	return c.clients[c.shardIndex(key)].Get(obs.WithTrace(context.TODO(), tctx), key)
}

// Put stores a key on its shard.
func (c *Cluster) Put(key string, val []byte) error {
	return c.clients[c.shardIndex(key)].Put(context.TODO(), key, val)
}

// MultiGet fetches a batch of keys: grouped by shard, fanned out
// concurrently (one round trip per shard), reassembled in request
// order. vals[i] is nil when keys[i] is absent and non-nil (possibly
// empty) when present. When some — but not all — shard batches fail,
// the healthy shards' values are returned alongside a *PartialError, so
// tolerant callers keep what arrived.
func (c *Cluster) MultiGet(keys []string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if len(c.clients) == 1 {
		return c.clients[0].MultiGet(context.TODO(), keys)
	}
	sc := c.scratch.Get().(*clusterScratch)
	defer c.putScratch(sc)
	for i, key := range keys {
		s := c.shardIndex(key)
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
			vals, err := c.clients[s].MultiGet(context.TODO(), sc.keys[s])
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
// fanned out concurrently. Storage is best-effort per key; the first
// error is returned after every shard's batch completes.
func (c *Cluster) MultiPut(keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("kvstore: MultiPut got %d keys, %d values", len(keys), len(vals))
	}
	if len(keys) == 0 {
		return nil
	}
	if len(c.clients) == 1 {
		return c.clients[0].MultiPut(context.TODO(), keys, vals)
	}
	sc := c.scratch.Get().(*clusterScratch)
	defer c.putScratch(sc)
	for i, key := range keys {
		s := c.shardIndex(key)
		sc.keys[s] = append(sc.keys[s], key)
		sc.vals[s] = append(sc.vals[s], vals[i])
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
			errs[s] = cl.MultiPut(context.TODO(), sc.keys[s], sc.vals[s])
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
		st, err := cl.Stats(context.TODO())
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
