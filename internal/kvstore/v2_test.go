package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestV2PutGetDelete sends the retired delete op over a live
// connection: the server must drop the connection without a response
// and keep the key, which a client on another connection still reads.
func TestV2PutGetDelete(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	if err := c.Put(bg, "k", []byte("hello")); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{frameMagic, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 'k', 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("delete frame: read %d bytes, err %v; want the connection dropped with no response", n, err)
	}

	v, found, err := c.Get(bg, "k")
	if err != nil || !found || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("Get(k) after delete frame = %q, %v, %v", v, found, err)
	}
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestV2OversizedValueRefused checks statusTooLarge surfaces through
// the pipelined client, for Put and MultiPut, and that the connection
// survives.
func TestV2OversizedValueRefused(t *testing.T) {
	s := testServer(t, 10)
	c := testClient(t, s)
	if err := c.Put(bg, "big", make([]byte, 100)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put(oversized) = %v, want ErrTooLarge", err)
	}
	err := c.MultiPut(bg, []string{"a", "big", "b"},
		[][]byte{[]byte("x"), make([]byte, 100), []byte("y")})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("MultiPut(oversized) = %v, want ErrTooLarge", err)
	}
	// Best-effort semantics: the admissible pairs around the refusal
	// must still have been stored.
	for _, k := range []string{"a", "b"} {
		if _, found, err := c.Get(bg, k); err != nil || !found {
			t.Fatalf("batch neighbor %q lost: %v %v", k, found, err)
		}
	}
	// Both refusals must be observable even by writers that drop the Put
	// error (the striped admission bound is per stripe, so silent drops
	// would otherwise be invisible).
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.TooLarge != 2 {
		t.Fatalf("client TooLarge = %d, want 2", st.TooLarge)
	}
	if got := s.Stats().TooLarge; got != 2 {
		t.Fatalf("server TooLarge = %d, want 2", got)
	}
}

// TestMultiGetMixed exercises a shard-local batch with hits, misses and
// an empty value.
func TestMultiGetMixed(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	if err := c.MultiPut(bg,
		[]string{"a", "empty", "c"},
		[][]byte{[]byte("va"), {}, []byte("vc")}); err != nil {
		t.Fatal(err)
	}
	vals, err := c.MultiGet(bg, []string{"missing1", "a", "empty", "missing2", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5 {
		t.Fatalf("got %d values", len(vals))
	}
	if vals[0] != nil || vals[3] != nil {
		t.Fatalf("absent keys returned values: %q %q", vals[0], vals[3])
	}
	if string(vals[1]) != "va" || string(vals[4]) != "vc" {
		t.Fatalf("wrong values: %q %q", vals[1], vals[4])
	}
	if vals[2] == nil || len(vals[2]) != 0 {
		t.Fatalf("present empty value must be non-nil empty, got %v", vals[2])
	}
}

// TestClusterMultiGetSpansShards drives a batch across a 3-shard
// cluster with mixed hits and misses, verifying order-preserving
// reassembly.
func TestClusterMultiGetSpansShards(t *testing.T) {
	var addrs []string
	var servers []*Server
	for i := 0; i < 3; i++ {
		s := testServer(t, 1<<20)
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	cluster, err := NewCluster(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const n = 90
	var keys []string
	var vals [][]byte
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("sample-%d", i))
		vals = append(vals, []byte(fmt.Sprintf("payload-%d", i)))
	}
	// Store only the even keys; odd keys are batch misses.
	var putKeys []string
	var putVals [][]byte
	for i := 0; i < n; i += 2 {
		putKeys = append(putKeys, keys[i])
		putVals = append(putVals, vals[i])
	}
	if err := cluster.MultiPut(putKeys, putVals); err != nil {
		t.Fatal(err)
	}
	// The batch must genuinely span shards.
	spread := 0
	for _, s := range servers {
		if s.Stats().Items > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("keys on %d/3 shards; hashing not spreading", spread)
	}
	got, err := cluster.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if !bytes.Equal(got[i], vals[i]) {
				t.Fatalf("key %d: got %q want %q", i, got[i], vals[i])
			}
		} else if got[i] != nil {
			t.Fatalf("key %d: miss returned %q", i, got[i])
		}
	}
}

// TestV2Pipelining verifies many concurrent ops share few connections:
// 32 goroutines over a single-connection client must all complete and
// observe their own writes.
func TestV2Pipelining(t *testing.T) {
	s := testServer(t, 8<<20)
	c, err := NewClient(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				want := []byte(fmt.Sprintf("v-%d-%d", g, i))
				if err := c.Put(bg, key, want); err != nil {
					errs <- err
					return
				}
				got, found, err := c.Get(bg, key)
				if err != nil || !found || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("get %s = %q %v %v", key, got, found, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st, _ := c.Stats(bg); st.Items != 32*25 {
		t.Fatalf("items = %d, want %d", st.Items, 32*25)
	}
}

// laneConns snapshots a lane's connections.
func laneConns(l *lane) []*pipeConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*pipeConn(nil), l.conns...)
}

// failAllConns drops every connection of both lanes behind the client's
// back.
func failAllConns(c *Client) {
	for _, l := range c.lanes() {
		for _, p := range laneConns(l) {
			p.fail(errors.New("test: injected drop"))
		}
	}
}

// TestV2Reconnect kills the client's sockets in both lanes behind its
// back and verifies the next point and batch ops heal via the lazy
// redial path.
func TestV2Reconnect(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	if err := c.Put(bg, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	failAllConns(c)
	// The first op after the drop may race the failure; the client must
	// heal within a couple of attempts, not poison its pool. Every
	// connection is dead, so Get heals only by redialing the point lane
	// and MultiGet only by redialing the batch lane.
	for _, op := range []struct {
		name string
		read func() ([]byte, error)
	}{
		{"Get", func() ([]byte, error) { v, _, err := c.Get(bg, "k"); return v, err }},
		{"MultiGet", func() ([]byte, error) {
			vals, err := c.MultiGet(bg, []string{"k"})
			if err != nil {
				return nil, err
			}
			return vals[0], nil
		}},
	} {
		var lastErr error
		healed := false
		for attempt := 0; attempt < 4 && !healed; attempt++ {
			v, err := op.read()
			healed = err == nil && string(v) == "v"
			lastErr = err
		}
		if !healed {
			t.Fatalf("%s did not recover from dropped connections: %v", op.name, lastErr)
		}
	}
}

// TestV2FailureUnderLoad repeatedly kills the client's connections
// while pipelined ops are in flight. Regression for a race between the
// writer goroutine and connection failure: fail() used to complete
// calls that were still queued for — or being serialized by — the
// writer, letting the caller recycle the call object and reuse its
// value buffers (which this test mutates between iterations) under the
// writer's reads. Under -race this must be silent, and every op must
// return rather than hang.
func TestV2FailureUnderLoad(t *testing.T) {
	s := testServer(t, 8<<20)
	c, err := NewClient(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]string, 4)
			vals := make([][]byte, 4)
			for i := range keys {
				keys[i] = fmt.Sprintf("g%d-k%d", g, i)
				vals[i] = bytes.Repeat([]byte{byte(g)}, 512)
			}
			for i := 0; !stop.Load(); i++ {
				// Errors are expected around each injected drop; what
				// matters is that the op returns, and that touching the
				// buffers afterwards cannot race a writer still
				// serializing them.
				if i%2 == 0 {
					_ = c.MultiPut(bg, keys, vals)
				} else {
					_, _, _ = c.Get(bg, keys[i%len(keys)])
				}
				for _, v := range vals {
					v[i%len(v)]++
				}
			}
		}()
	}
	for round := 0; round < 8; round++ {
		time.Sleep(2 * time.Millisecond)
		failAllConns(c) // the Gets' point lane and the MultiPuts' batch lane
	}
	stop.Store(true)
	done := make(chan struct{})
	//lint:allow goroutine exits when wg.Wait returns; the select below bounds the wait at 30s
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pipelined ops hung across injected connection failures")
	}
	// Both lanes redial: with one connection each, the next op on each
	// lane gets a fresh one.
	failAllConns(c)
	if err := c.MultiPut(bg, []string{"after"}, [][]byte{[]byte("x")}); err != nil {
		t.Fatalf("MultiPut after the drops: %v", err)
	}
	if v, found, err := c.Get(bg, "after"); err != nil || !found || string(v) != "x" {
		t.Fatalf("Get after the drops = %q, %v, %v", v, found, err)
	}
}

// TestV2MismatchedResponseErrors serves a response whose op byte does
// not match the request it answers. The waiter must get an error — not
// hang forever — and the connection must be dropped.
func TestV2MismatchedResponseErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	//lint:allow goroutine serves exactly one connection and exits; Cleanup closing the listener unblocks a pending Accept
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Consume the Get("k") request frame:
		// magic(1) flags(1) op(1) id(4) keyLen(4) "k"(1) valLen(4).
		buf := make([]byte, 16)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return
		}
		// Answer request 0 with the wrong op byte and an empty body.
		_, _ = conn.Write([]byte{opPut, 0, 0, 0, 0, statusOK, 0, 0, 0, 0})
	}()
	c, err := NewClient(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Get(bg, "k")
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Get succeeded against a desynced server")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get hung on a mismatched response")
	}
}

// TestStripingSpreadsAndBounds checks that a striped server both uses
// multiple stripes and keeps total bytes within capacity.
func TestStripingSpreadsAndBounds(t *testing.T) {
	s := testServerOptions(t, ServerOptions{Capacity: 1 << 20, Stripes: 8})
	if s.Stripes() != 8 {
		t.Fatalf("stripes = %d, want 8", s.Stripes())
	}
	c := testClient(t, s)
	val := make([]byte, 4<<10)
	for i := 0; i < 1000; i++ {
		if err := c.Put(bg, fmt.Sprintf("key-%d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.UsedBytes > 1<<20 {
		t.Fatalf("used %d > capacity", st.UsedBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 4x oversubscription")
	}
	occupied := 0
	for _, sp := range s.st.stripes {
		sp.mu.Lock()
		if len(sp.items) > 0 {
			occupied++
		}
		sp.mu.Unlock()
	}
	if occupied < 4 {
		t.Fatalf("only %d/8 stripes occupied; hashing not spreading", occupied)
	}
}

// TestAutoStripeCollapse: tiny capacities must collapse to one stripe so
// the global LRU eviction order of an unstriped store is preserved exactly.
func TestAutoStripeCollapse(t *testing.T) {
	small := testServer(t, 100)
	if small.Stripes() != 1 {
		t.Fatalf("tiny shard got %d stripes, want 1", small.Stripes())
	}
	big := testServer(t, 64<<20)
	if big.Stripes() != defaultStripes {
		t.Fatalf("big shard got %d stripes, want %d", big.Stripes(), defaultStripes)
	}
}
