package kvstore

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentMixedOpsV2 drives every pipelined-client operation —
// Put, Get, MultiGet, MultiPut, Stats — from concurrent
// goroutines over two multiplexed connections. Under -race this covers
// the writer/reader goroutines, the pending-map dispatch, the call pool
// and the striped store end to end.
func TestConcurrentMixedOpsV2(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]string, 6)
			vals := make([][]byte, 6)
			for i := range keys {
				keys[i] = fmt.Sprintf("g%d-k%d", g, i)
				vals[i] = []byte(fmt.Sprintf("v%d-%d", g, i))
			}
			for i := 0; i < 30; i++ {
				switch i % 5 {
				case 0:
					if err := c.MultiPut(bg, keys, vals); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, err := c.MultiGet(bg, keys); err != nil {
						errs <- err
						return
					}
				case 2:
					if err := c.Put(bg, keys[i%6], vals[i%6]); err != nil {
						errs <- err
						return
					}
				case 3:
					if _, _, err := c.Get(bg, keys[i%6]); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := c.Stats(bg); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentMixedOps drives every single-key client operation —
// Put, Get, client Stats and server Stats — from concurrent goroutines
// against one shard. Under -race this covers the server's single-mutex
// LRU (the paths the mutex-discipline analyzer audits) end to end over
// real TCP connections.
func TestConcurrentMixedOps(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%8)
				switch i % 3 {
				case 0:
					if err := c.Put(bg, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
						errs <- err
						return
					}
				case 1:
					if _, _, err := c.Get(bg, key); err != nil {
						errs <- err
						return
					}
				default:
					if _, err := c.Stats(bg); err != nil {
						errs <- err
						return
					}
					s.Stats() // in-process snapshot racing the TCP path
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
