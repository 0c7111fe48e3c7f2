package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

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

func TestPutGetDelete(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)

	if _, found, err := c.Get("missing"); err != nil || found {
		t.Fatalf("Get(missing) = %v, %v", found, err)
	}
	if err := c.Put("k1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("k1")
	if err != nil || !found || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("Get(k1) = %q, %v, %v", v, found, err)
	}
	if err := c.Delete("k1"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.Get("k1"); found {
		t.Fatal("deleted key still present")
	}
	if err := c.Delete("k1"); err != nil {
		t.Fatal("delete of absent key must be a no-op")
	}
}

func TestOverwrite(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	c.Put("k", []byte("one"))
	c.Put("k", []byte("twotwo"))
	v, found, _ := c.Get("k")
	if !found || string(v) != "twotwo" {
		t.Fatalf("overwrite lost: %q", v)
	}
	st, err := c.Stats()
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
	c.Put("a", val)
	c.Put("b", val)
	// Touch "a" so "b" is LRU.
	c.Get("a")
	c.Put("c", val) // 120 bytes > 100: evicts "b"
	if _, found, _ := c.Get("b"); found {
		t.Fatal("LRU victim b still present")
	}
	for _, k := range []string{"a", "c"} {
		if _, found, _ := c.Get(k); !found {
			t.Fatalf("%s wrongly evicted", k)
		}
	}
	st, _ := c.Stats()
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
	err := c.Put("big", make([]byte, 100))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put(oversized) = %v, want ErrTooLarge", err)
	}
	if _, found, _ := c.Get("big"); found {
		t.Fatal("oversized value stored")
	}
	// The connection must survive the refusal.
	if err := c.Put("small", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	s := testServer(t, 1<<10)
	c := testClient(t, s)
	if err := c.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get("empty")
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
				if err := c.Put(key, want); err != nil {
					errs <- err
					return
				}
				got, found, err := c.Get(key)
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
	st, _ := c.Stats()
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
	if cluster.Shards() != 3 {
		t.Fatalf("shards = %d", cluster.Shards())
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
