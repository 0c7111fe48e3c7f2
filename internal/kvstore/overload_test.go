package kvstore

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// testServerOptions starts a shard with explicit options on an
// ephemeral port.
func testServerOptions(t *testing.T, opts ServerOptions) *Server {
	t.Helper()
	s, err := NewServerOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestAdmissionQuotaShed arms only the per-connection token bucket:
// with no token coming back for 10s, every attempt of an op is shed, so
// the op gives up after retryAttempts retries with ErrRetryLater, and
// Stats — exempt from the gate on the same connection — counts each
// attempt.
func TestAdmissionQuotaShed(t *testing.T) {
	s := testServerOptions(t, ServerOptions{
		Capacity: 1 << 20,
		// One token, refilled every 10s: the first data op spends it.
		Admission: AdmissionConfig{QuotaRate: 0.1, QuotaBurst: 1},
	})
	cl, err := NewClient(s.Addr(), 1) // one conn per lane = one bucket
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(bg, "k", []byte("v")); err != nil {
		t.Fatalf("first op should be admitted: %v", err)
	}
	_, _, err = cl.Get(bg, "k")
	if !errors.Is(err, ErrRetryLater) {
		t.Fatalf("second op: err = %v, want ErrRetryLater", err)
	}
	st, err := cl.Stats(bg)
	if err != nil {
		t.Fatalf("stats must be exempt from admission: %v", err)
	}
	if st.ShedQuota != retryAttempts+1 {
		t.Fatalf("ShedQuota = %d, want %d", st.ShedQuota, retryAttempts+1)
	}
}

// TestAdmissionQueueShed fills the in-flight gate with slow requests
// and checks the overflow is shed, not queued without bound. The
// client retries each shed, so an op either ends up served or gives up
// with ErrRetryLater; the shard's counter shows the sheds.
func TestAdmissionQueueShed(t *testing.T) {
	s := testServerOptions(t, ServerOptions{
		Capacity:  1 << 20,
		Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, MaxWait: 5 * time.Millisecond},
	})
	s.SetFault(FaultConfig{Lag: 50 * time.Millisecond})
	cl := testClient(t, s)
	const n = 8
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cl.Get(bg, "missing")
			errs <- err
		}()
	}
	defer wg.Wait()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && !errors.Is(err, ErrRetryLater) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	st, err := cl.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedQueue == 0 {
		t.Fatal("no request was shed at a 1-slot gate with 8 concurrent ops")
	}
	// The shed path must preserve framing: the connection still works.
	s.SetFault(FaultConfig{})
	if err := cl.Put(bg, "after", []byte("ok")); err != nil {
		t.Fatalf("connection unhealthy after sheds: %v", err)
	}
}

// TestAdmissionDeadlineShed parks a slow request in the single
// in-flight slot and sends a deadlined request behind it: the server
// must shed it at the gate once its budget runs out, and the client's
// context must expire cleanly.
func TestAdmissionDeadlineShed(t *testing.T) {
	s := testServerOptions(t, ServerOptions{
		Capacity:  1 << 20,
		Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: 4, MaxWait: time.Second},
	})
	s.SetFault(FaultConfig{Lag: 200 * time.Millisecond})
	cl := testClient(t, s)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = cl.Get(bg, "occupier") // holds the slot for the lag
	}()
	time.Sleep(10 * time.Millisecond) // let the occupier take the slot
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := cl.Get(ctx, "deadlined")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	wg.Wait()
	s.SetFault(FaultConfig{})
	st, err := cl.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedDeadline == 0 {
		t.Fatal("ShedDeadline = 0: the deadlined request was never shed at the gate")
	}
}

// TestDeadlineAndTraceInOneFrame sends requests carrying both a
// deadline and a trace context: each must record its server span with
// the originating rank/iter, and the one queued behind a full gate must
// still be shed once its budget runs out.
func TestDeadlineAndTraceInOneFrame(t *testing.T) {
	ring := obs.NewTraceRing(64)
	s := testServerOptions(t, ServerOptions{
		Capacity:  1 << 20,
		Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: 4, MaxWait: time.Second},
		Trace:     ring,
	})
	occupier, traced := testClient(t, s), testClient(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, found, err := traced.Get(obs.WithTrace(ctx, obs.NewTraceCtx(3, 1, 6)), "k"); err != nil || found {
		t.Fatalf("admitted traced Get = %v, %v; want a miss", found, err)
	}

	s.SetFault(FaultConfig{Lag: 200 * time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = occupier.Get(bg, "occupier") // holds the only slot for the lag
	}()
	for s.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := traced.Get(obs.WithTrace(ctx, obs.NewTraceCtx(3, 1, 7)), "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued traced Get = %v, want DeadlineExceeded", err)
	}
	wg.Wait()
	if got := s.Stats().ShedDeadline; got != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", got)
	}

	s.Close() // waits out the connection handlers, so every span has landed
	iters := map[int64]bool{}
	for _, e := range ring.Events() {
		if e.Name == "kv.get" && e.Arg1Name == "rank" && e.Arg1 == 3 && e.Arg2Name == "iter" {
			iters[e.Arg2] = true
		}
	}
	if !iters[6] || !iters[7] {
		t.Fatalf("kv.get spans for rank 3 cover iters %v, want 6 (admitted) and 7 (shed)", iters)
	}
}

// TestClientRetriesShed checks every verb absorbs a server shed. Each
// case runs its verb twice on a fresh one-connection lane whose 1-token
// bucket refills every 50ms: the first call spends the token, the
// second is shed, backs off until the refill and returns the right
// value, counted on lobster_kvstore_client_retries_total. Stats is
// exempt from the gate: it is never shed and never retried.
func TestClientRetriesShed(t *testing.T) {
	s := testServerOptions(t, ServerOptions{
		Capacity:  1 << 20,
		Admission: AdmissionConfig{QuotaRate: 20, QuotaBurst: 1},
	})
	seed, err := NewClient(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	if err := seed.Put(bg, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		verb string
		run  func(cl *Client) error // one call, checking its result
	}{
		{"Get", func(cl *Client) error {
			v, found, err := cl.Get(bg, "k")
			if err == nil && (!found || string(v) != "v") {
				err = fmt.Errorf("Get = %q, %v; want v, true", v, found)
			}
			return err
		}},
		{"Put", func(cl *Client) error { return cl.Put(bg, "p", []byte("1")) }},
		{"MultiGet", func(cl *Client) error {
			vals, err := cl.MultiGet(bg, []string{"k", "absent"})
			if err == nil && (string(vals[0]) != "v" || vals[1] != nil) {
				err = fmt.Errorf("MultiGet = %q; want [v <nil>]", vals)
			}
			return err
		}},
		{"MultiPut", func(cl *Client) error {
			return cl.MultiPut(bg, []string{"a", "b"}, [][]byte{[]byte("1"), []byte("2")})
		}},
	} {
		t.Run(tc.verb, func(t *testing.T) {
			cl, err := NewClient(s.Addr(), 1)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			ins := NewClientInstruments(obs.NewRegistry(), "0")
			cl.SetInstruments(ins)
			for i := 0; i < 2; i++ {
				if err := tc.run(cl); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			retries := ins.RetryLater.Value()
			if retries == 0 {
				t.Fatal("retries = 0: the second call was never shed")
			}
			st, err := cl.Stats(bg)
			if err != nil {
				t.Fatal(err)
			}
			if st.ShedQuota < retries {
				t.Fatalf("ShedQuota = %d, fewer than the %d retries", st.ShedQuota, retries)
			}
			if got := ins.RetryLater.Value(); got != retries {
				t.Fatalf("Stats was retried: retries %d -> %d", retries, got)
			}
		})
	}
}

// TestClientContextCancelMidPipeline hammers a lagged server with
// short-deadline ops from many goroutines: cancelled calls must leave
// no stuck waiters and no pool corruption, and afterwards the same
// client must still round-trip values correctly. Run under -race.
func TestClientContextCancelMidPipeline(t *testing.T) {
	s := testServer(t, 1<<20)
	cl := testClient(t, s)
	if err := cl.Put(bg, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.SetFault(FaultConfig{Lag: 2 * time.Millisecond})
	const goroutines, iters = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Deadlines from already-expired up to ~the lag, so
				// cancellations land before, during and after the
				// window wait, the queue and the server round trip.
				d := time.Duration((g+i)%4) * time.Millisecond
				ctx, cancel := context.WithTimeout(context.Background(), d)
				switch i % 3 {
				case 0:
					_, _, err := cl.Get(ctx, "k")
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("Get: %v", err)
					}
				case 1:
					key := fmt.Sprintf("w/%d/%d", g, i)
					err := cl.Put(ctx, key, []byte(key))
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("Put: %v", err)
					}
				case 2:
					_, err := cl.MultiGet(ctx, []string{"k", "absent"})
					if err != nil && !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("MultiGet: %v", err)
					}
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	s.SetFault(FaultConfig{})
	// The pipeline must be fully healthy: every pooled call object
	// recycles cleanly and values round-trip uncorrupted.
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("post/%d", i)
		if err := cl.Put(bg, key, []byte(key)); err != nil {
			t.Fatalf("post-cancel Put: %v", err)
		}
		v, found, err := cl.Get(bg, key)
		if err != nil || !found || string(v) != key {
			t.Fatalf("post-cancel Get(%q) = %q, %v, %v", key, v, found, err)
		}
	}
}

// TestWriteLoopFlushesAfterDiscardedCall queues a live Get followed by a
// call whose deadline budget is already spent, on one connection, before
// the writer starts: the writer serializes the Get, sees the queue is not
// empty and defers the flush, then discards the expired call. The Get's
// frame must still go out — nothing else will ever be written on this
// connection to carry it.
func TestWriteLoopFlushesAfterDiscardedCall(t *testing.T) {
	s := testServer(t, 1<<20)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p := newPipeConn(conn, 0)
	defer p.shutdown(ErrClientClosed)
	live := getCall(request{op: opGet, key: "absent"})
	spent := getCall(request{op: opGet, key: "absent"})
	spent.expiry = time.Now().Add(-time.Second)
	for _, c := range []*call{live, spent} {
		if err := p.register(c); err != nil {
			t.Fatal(err)
		}
		p.wq <- c
	}
	p.wg.Add(2)
	go p.writeLoop()
	go p.readLoop()

	timeout := time.After(10 * time.Second)
	for _, want := range []struct {
		c   *call
		err error
	}{{spent, context.DeadlineExceeded}, {live, nil}} {
		select {
		case c := <-want.c.done:
			if !errors.Is(c.err, want.err) {
				t.Fatalf("call completed with %v, want %v", c.err, want.err)
			}
		case <-timeout:
			t.Fatal("the Get's frame was never flushed: its response did not arrive")
		}
	}
	if live.status != statusNotFound {
		t.Fatalf("Get of an absent key answered status %d", live.status)
	}
}

// testClusterServers starts n shards and returns them with their
// addresses.
func testClusterServers(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		servers[i] = testServer(t, 1<<20)
		addrs[i] = servers[i].Addr()
	}
	return servers, addrs
}

// clusterKeysFor returns numPer keys routed to each shard of c, so a
// test can guarantee fan-out coverage of every shard.
func clusterKeysFor(t *testing.T, c *Cluster, numPer int) []string {
	t.Helper()
	per := make([]int, len(c.clients))
	var keys []string
	for i := 0; len(keys) < numPer*len(c.clients); i++ {
		key := fmt.Sprintf("sample/%d", i)
		if s := c.shardIndex(key); per[s] < numPer {
			per[s]++
			keys = append(keys, key)
		}
		if i > 100000 {
			t.Fatal("could not route keys to every shard")
		}
	}
	return keys
}

// TestClusterMultiGetPartialShardDown kills one shard of a cluster:
// MultiGet must return the healthy shards'
// values alongside a *PartialError, not discard the batch.
func TestClusterMultiGetPartialShardDown(t *testing.T) {
	servers, addrs := testClusterServers(t, 3)
	c, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := clusterKeysFor(t, c, 4)
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = []byte("v:" + k)
	}
	if err := c.MultiPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	const down = 1
	servers[down].Close()
	got, err := c.MultiGet(keys)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if pe.Failed == 0 || pe.Failed >= pe.Attempted {
		t.Fatalf("PartialError = %+v, want 0 < Failed < Attempted", pe)
	}
	for i, k := range keys {
		if c.shardIndex(k) == down {
			if got[i] != nil {
				t.Fatalf("key %q on dead shard returned %q", k, got[i])
			}
			continue
		}
		if string(got[i]) != "v:"+k {
			t.Fatalf("key %q = %q, want %q", k, got[i], "v:"+k)
		}
	}

	// Single-key ops go to the key's shard and nowhere else: on the dead
	// shard they fail promptly, never a hit; elsewhere they still serve.
	const prompt = 2 * time.Second
	for _, k := range keys {
		if c.shardIndex(k) != down {
			if v, found, err := c.Get(k); err != nil || !found || string(v) != "v:"+k {
				t.Fatalf("Get(%q) on a live shard = %q, %v, %v", k, v, found, err)
			}
			continue
		}
		start := time.Now()
		if v, found, err := c.Get(k); err == nil || found {
			t.Fatalf("Get(%q) on the dead shard = %q, %v, %v, want an error", k, v, found, err)
		}
		if err := c.Put(k, []byte("x")); err == nil {
			t.Fatalf("Put(%q) on the dead shard succeeded", k)
		}
		if elapsed := time.Since(start); elapsed > prompt {
			t.Fatalf("Get+Put on the dead shard took %v, want < %v", elapsed, prompt)
		}
	}
}

// TestAdmissionConfigDefaults covers the admitter's defaulting and the
// nil-admitter fast paths.
func TestAdmissionConfigDefaults(t *testing.T) {
	if a := newAdmitter(AdmissionConfig{}); a != nil {
		t.Fatal("zero config must disable admission")
	}
	a := newAdmitter(AdmissionConfig{MaxInFlight: 8})
	if a.cfg.MaxQueue != 32 {
		t.Fatalf("MaxQueue default = %d, want 4x in-flight", a.cfg.MaxQueue)
	}
	if a.cfg.MaxWait != defaultMaxWait {
		t.Fatalf("MaxWait default = %v, want %v", a.cfg.MaxWait, defaultMaxWait)
	}
	b := newAdmitter(AdmissionConfig{QuotaRate: 10})
	if b.cfg.QuotaBurst != 10 {
		t.Fatalf("QuotaBurst default = %v, want QuotaRate", b.cfg.QuotaBurst)
	}
	var nilA *admitter
	if v := nilA.admit(nil, time.Time{}, time.Now()); v != admitOK {
		t.Fatalf("nil admitter verdict = %v, want admitOK", v)
	}
	nilA.release()
	if d, q, qu := nilA.sheds(); d+q+qu != 0 {
		t.Fatal("nil admitter sheds non-zero")
	}
	if nilA.queueDepth() != 0 {
		t.Fatal("nil admitter queueDepth non-zero")
	}
}
