package doctor

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/obs"
)

// TestCrossNodeTraceMerge drives the full cross-node correlation path:
// two kvstore shards on separate "nodes" (rings that happen to share a
// pid, as two hosts' processes legitimately can), clients on different
// ranks issuing traced gets, each shard's /trace.json dump merged
// by the doctor. The originating rank/iter must survive the wire
// round-trip into the server-side spans, and the merge must keep the
// two nodes' tracks collision-free.
func TestCrossNodeTraceMerge(t *testing.T) {
	type node struct {
		name string
		ring *obs.TraceRing
		srv  *kvstore.Server
	}
	var nodes []*node
	for _, name := range []string{"node0", "node1"} {
		ring := obs.NewTraceRing(1 << 10)
		ring.SetProcess(4242, name) // same pid on both hosts
		srv, err := kvstore.NewServerOptions("127.0.0.1:0", kvstore.ServerOptions{
			Capacity: 1 << 20,
			Trace:    ring,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		nodes = append(nodes, &node{name: name, ring: ring, srv: srv})
	}

	type req struct {
		node        int
		rank, epoch int
		iter        int64
	}
	reqs := []req{
		{node: 0, rank: 3, epoch: 1, iter: 7},
		{node: 1, rank: 5, epoch: 2, iter: 9},
	}
	for _, q := range reqs {
		cl, err := kvstore.NewClient(nodes[q.node].srv.Addr(), 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := cl.Put(ctx, "sample", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := cl.Get(obs.WithTrace(ctx, obs.NewTraceCtx(q.rank, q.epoch, q.iter)), "sample"); err != nil || !ok {
			t.Fatalf("traced Get: ok=%v err=%v", ok, err)
		}
		cancel()
		cl.Close()
	}

	// Close both shards first: Close waits out the handler goroutines,
	// so every server-side span has landed in its ring.
	var traces []*Trace
	for _, n := range nodes {
		if err := n.srv.Close(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := n.ring.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		tr, err := ParseTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}

	merged := Merge(traces...)
	if len(merged.Processes) != 2 {
		t.Fatalf("merged %d processes, want 2: %v", len(merged.Processes), merged.Processes)
	}
	pids := map[string]int{}
	for pid, name := range merged.Processes {
		pids[name] = pid
	}
	if pids["node0"] == pids["node1"] {
		t.Errorf("colliding pids not remapped: both nodes at %d", pids["node0"])
	}

	// Each node's kv.get span must carry its requester's rank/iter.
	found := map[string]bool{}
	for _, e := range merged.Events {
		if e.Ph != "X" || e.Name != "kv.get" {
			continue
		}
		for i, q := range reqs {
			if e.Pid == pids[nodes[q.node].name] &&
				e.Args["rank"] == float64(q.rank) && e.Args["iter"] == float64(q.iter) {
				found[nodes[i].name] = true
			}
		}
	}
	for _, n := range nodes {
		if !found[n.name] {
			t.Errorf("%s: no kv.get span carrying its requester's rank/iter", n.name)
		}
	}
}
