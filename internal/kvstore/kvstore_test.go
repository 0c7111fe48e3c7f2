package kvstore

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
)

// bg is the context of test ops that carry no deadline or trace.
var bg = context.Background()

func testServer(t *testing.T, capacity int64) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func testClient(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := NewClient(s.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

// TestPutGetDelete covers the single-op surface, Stats included, and
// that the retired delete op (op byte 3) is dropped as unknown without
// a response.
func TestPutGetDelete(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)

	if _, found, err := c.Get(bg, "missing"); err != nil || found {
		t.Fatalf("Get(missing) = %v, %v", found, err)
	}
	if err := c.Put(bg, "k1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get(bg, "k1")
	if err != nil || !found || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("Get(k1) = %q, %v, %v", v, found, err)
	}
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}

	frame := []byte{frameMagic, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 'k', 0, 0, 0, 0}
	w := bufio.NewWriter(io.Discard)
	err = newStore(1<<20, 1).handleFrame(bufio.NewReader(bytes.NewReader(frame)), w, nil, 0)
	if !errors.Is(err, errFrame) || w.Buffered() != 0 {
		t.Fatalf("op 3 frame: err = %v, %d response bytes; want errFrame, none", err, w.Buffered())
	}
}

func TestOverwrite(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	c.Put(bg, "k", []byte("one"))
	c.Put(bg, "k", []byte("twotwo"))
	v, found, _ := c.Get(bg, "k")
	if !found || string(v) != "twotwo" {
		t.Fatalf("overwrite lost: %q", v)
	}
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != 1 || st.UsedBytes != 6 {
		t.Fatalf("stats after overwrite: %+v", st)
	}
}

func TestLRUEvictionUnderCapacity(t *testing.T) {
	s := testServer(t, 100)
	c := testClient(t, s)
	val := make([]byte, 40)
	c.Put(bg, "a", val)
	c.Put(bg, "b", val)
	// Touch "a" so "b" is LRU.
	c.Get(bg, "a")
	c.Put(bg, "c", val) // 120 bytes > 100: evicts "b"
	if _, found, _ := c.Get(bg, "b"); found {
		t.Fatal("LRU victim b still present")
	}
	for _, k := range []string{"a", "c"} {
		if _, found, _ := c.Get(bg, k); !found {
			t.Fatalf("%s wrongly evicted", k)
		}
	}
	st, _ := c.Stats(bg)
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.UsedBytes > 100 {
		t.Fatalf("used %d > capacity", st.UsedBytes)
	}
}

func TestOversizedValueRefused(t *testing.T) {
	s := testServer(t, 10)
	c := testClient(t, s)
	err := c.Put(bg, "big", make([]byte, 100))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put(oversized) = %v, want ErrTooLarge", err)
	}
	if _, found, _ := c.Get(bg, "big"); found {
		t.Fatal("oversized value stored")
	}
	// The connection must survive the refusal.
	if err := c.Put(bg, "small", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	s := testServer(t, 1<<10)
	c := testClient(t, s)
	if err := c.Put(bg, "empty", nil); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get(bg, "empty")
	if err != nil || !found || len(v) != 0 {
		t.Fatalf("empty value round trip: %v %v %v", v, found, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s := testServer(t, 10<<20)
	c := testClient(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
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
	st, _ := c.Stats(bg)
	if st.Items != 400 {
		t.Fatalf("items = %d, want 400", st.Items)
	}
}

func TestClusterSharding(t *testing.T) {
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
	if len(cluster.clients) != 3 {
		t.Fatalf("shards = %d", len(cluster.clients))
	}
	const n = 120
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("sample-%d", i)
		if err := cluster.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("sample-%d", i)
		v, found, err := cluster.Get(key)
		if err != nil || !found || string(v) != key {
			t.Fatalf("cluster get %s: %q %v %v", key, v, found, err)
		}
	}
	// Keys must actually spread across shards.
	spread := 0
	for _, s := range servers {
		if s.Stats().Items > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("keys on %d/3 shards; hashing not spreading", spread)
	}
	st, err := cluster.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Items != n {
		t.Fatalf("cluster items = %d, want %d", st.Items, n)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, 1); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := NewCluster([]string{"127.0.0.1:1"}, 1); err == nil {
		t.Fatal("unreachable shard accepted")
	}
}
