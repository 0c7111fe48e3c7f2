package kvstore

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// Benchmark fixture: one shard preloaded with benchKeys values of
// benchValBytes each, far under capacity so no evictions perturb
// timing. The client multiplexes every caller over a single pipelined
// connection.
const (
	benchKeys     = 1024
	benchValBytes = 4 << 10
)

func newBenchServer() (*Server, error) {
	s, err := NewServer("127.0.0.1:0", 256<<20)
	if err != nil {
		return nil, err
	}
	seed, err := NewClient(s.Addr(), 1)
	if err != nil {
		s.Close()
		return nil, err
	}
	defer seed.Close()
	val := make([]byte, benchValBytes)
	for i := range val {
		val[i] = byte(i)
	}
	for i := 0; i < benchKeys; i++ {
		if err := seed.Put(bg, benchKey(i), val); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	s, err := newBenchServer()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func benchKey(i int) string { return fmt.Sprintf("sample/%d", i) }

// runClients spreads b.N ops over `clients` goroutines and reports the
// p99 per-op latency alongside the standard ns/op and allocation
// numbers. Latency slabs are allocated before the timer starts so they
// do not pollute B/op.
func runClients(b *testing.B, clients int, op func(g, i int) error) {
	b.Helper()
	b.ReportAllocs()
	var wg sync.WaitGroup
	per := b.N / clients
	errs := make(chan error, clients)
	lats := make([][]int64, clients)
	for g := range lats {
		n := per
		if g == 0 {
			n += b.N % clients
		}
		lats[g] = make([]int64, 0, n)
	}
	b.ResetTimer()
	for g := 0; g < clients; g++ {
		g := g
		n := per
		if g == 0 {
			n += b.N % clients
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				start := time.Now()
				err := op(g, i)
				lats[g] = append(lats[g], time.Since(start).Nanoseconds())
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		b.ReportMetric(float64(all[len(all)*99/100]), "p99-ns")
	}
}

func benchDial(b *testing.B, s *Server) *Client {
	b.Helper()
	c, err := NewClient(s.Addr(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkKVGet measures single-key Get throughput at 1–64 concurrent
// client goroutines over one pipelined connection.
func BenchmarkKVGet(b *testing.B) {
	s := benchServer(b)
	for _, clients := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			c := benchDial(b, s)
			defer c.Close()
			runClients(b, clients, func(g, i int) error {
				_, found, err := c.Get(bg, benchKey((g*7919+i)%benchKeys))
				if err == nil && !found {
					err = fmt.Errorf("bench key missing")
				}
				return err
			})
		})
	}
}

// BenchmarkKVMultiGet measures fetching a 32-key prefetch window in one
// MultiGet round trip. Reported per window.
func BenchmarkKVMultiGet(b *testing.B) {
	const window = 32
	s := benchServer(b)
	keys := make([]string, window)
	for k := range keys {
		keys[k] = benchKey(k * 31 % benchKeys)
	}
	for _, clients := range []int{1, 16} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			c := benchDial(b, s)
			defer c.Close()
			runClients(b, clients, func(g, i int) error {
				_, err := c.MultiGet(bg, keys)
				return err
			})
		})
	}
}

// BenchmarkKVPut measures write throughput at 16 clients.
func BenchmarkKVPut(b *testing.B) {
	s := benchServer(b)
	val := make([]byte, benchValBytes)
	b.Run("clients=16", func(b *testing.B) {
		c := benchDial(b, s)
		defer c.Close()
		runClients(b, 16, func(g, i int) error {
			return c.Put(bg, benchKey((g*7919+i)%benchKeys), val)
		})
	})
}
