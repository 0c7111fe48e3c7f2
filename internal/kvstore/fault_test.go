package kvstore

import (
	"fmt"
	"testing"
	"time"
)

func TestFaultOpsScoping(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)

	// Error every Get; Puts must pass untouched.
	s.SetFault(FaultConfig{ErrRate: 1, Ops: FaultGet})
	if err := c.Put(bg, "k", []byte("v")); err != nil {
		t.Fatalf("Put under Get-scoped fault: %v", err)
	}
	if _, _, err := c.Get(bg, "k"); err == nil {
		t.Fatal("Get-scoped fault did not fire")
	}
	errs, drops := s.FaultCounts()
	if errs != 1 || drops != 0 {
		t.Fatalf("fault counts = (%d,%d), want (1,0)", errs, drops)
	}

	// Clear: both ops healthy again.
	s.SetFault(FaultConfig{})
	if v, found, err := c.Get(bg, "k"); err != nil || !found || string(v) != "v" {
		t.Fatalf("Get after clearing fault = %q, %v, %v", v, found, err)
	}

	// Zero Ops mask matches all data ops.
	s.SetFault(FaultConfig{ErrRate: 1})
	if err := c.Put(bg, "k2", []byte("v")); err == nil {
		t.Fatal("all-ops fault did not hit Put")
	}
	// Stats is always exempt: monitoring survives chaos.
	if _, err := c.Stats(bg); err != nil {
		t.Fatalf("Stats under all-ops fault: %v", err)
	}
}

func TestFaultErrorVisibleToV2Batches(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	if err := c.Put(bg, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}

	s.SetFault(FaultConfig{ErrRate: 1, Ops: FaultMultiGet | FaultMultiPut})
	if _, err := c.MultiGet(bg, []string{"a", "b"}); err == nil {
		t.Fatal("injected MultiGet error not surfaced")
	}
	if err := c.MultiPut(bg, []string{"x"}, [][]byte{[]byte("y")}); err == nil {
		t.Fatal("injected MultiPut error not surfaced")
	}

	// Framing must survive the injected error: the same connection keeps
	// answering once the fault clears.
	s.SetFault(FaultConfig{})
	v, found, err := c.Get(bg, "a")
	if err != nil || !found || string(v) != "1" {
		t.Fatalf("connection desynced after injected batch error: %q, %v, %v", v, found, err)
	}
}

func TestFaultDropAndRedial(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	if err := c.Put(bg, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	// Every request severs the connection: ops fail.
	s.SetFault(FaultConfig{DropRate: 1})
	if _, _, err := c.Get(bg, "k"); err == nil {
		t.Fatal("dropped connection reported success")
	}
	if _, drops := s.FaultCounts(); drops == 0 {
		t.Fatal("no drops counted")
	}

	// The crashed shard "restarts": the client must redial and recover
	// without being rebuilt.
	s.SetFault(FaultConfig{})
	eventually(t, "Get after drops cleared", func() error {
		v, found, err := c.Get(bg, "k")
		if err == nil && (!found || string(v) != "v") {
			err = fmt.Errorf("Get = %q, %v", v, found)
		}
		return err
	})

	// A dropped batch-lane connection redials the same way, and the point
	// lane keeps serving while batches fail.
	before := laneConns(&c.batch)
	s.SetFault(FaultConfig{DropRate: 1, Ops: FaultMultiGet})
	if _, err := c.MultiGet(bg, []string{"k"}); err == nil {
		t.Fatal("dropped batch connection reported success")
	}
	if v, found, err := c.Get(bg, "k"); err != nil || !found || string(v) != "v" {
		t.Fatalf("Get while the batch lane drops = %q, %v, %v", v, found, err)
	}
	s.SetFault(FaultConfig{})
	multiGet := func() error {
		vals, err := c.MultiGet(bg, []string{"k"})
		if err == nil && string(vals[0]) != "v" {
			err = fmt.Errorf("MultiGet = %q", vals)
		}
		return err
	}
	eventually(t, "MultiGet after drops cleared", multiGet)
	for range before { // one more round, so every slot is picked again
		if err := multiGet(); err != nil {
			t.Fatal(err)
		}
	}
	replaced := 0
	for i, p := range laneConns(&c.batch) {
		if p.dead.Load() {
			t.Fatalf("batch slot %d still dead after a full round", i)
		}
		if p != before[i] {
			replaced++
		}
	}
	if replaced == 0 {
		t.Fatal("no batch-lane connection was redialed")
	}
}

// eventually retries op every 10ms, up to 50 times, until it succeeds.
func eventually(t *testing.T, what string, op func() error) {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		if lastErr = op(); lastErr == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s: client never recovered: %v", what, lastErr)
}

func TestFaultLagDelays(t *testing.T) {
	s := testServer(t, 1<<20)
	c := testClient(t, s)
	s.SetFault(FaultConfig{Lag: 20 * time.Millisecond, Ops: FaultGet})
	start := time.Now()
	if _, _, err := c.Get(bg, "k"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("lagged Get returned in %v", elapsed)
	}
}

// TestGetDoesNotQueueBehindMultiGet lags every MultiGet by 300ms and
// issues a Get while one is being served, on a client with one
// connection per lane and through a cluster over the same shard: the Get
// must not wait out the batch. The server answers a connection's frames
// one at a time, so a Get sharing the MultiGet's connection would take
// the whole lag.
func TestGetDoesNotQueueBehindMultiGet(t *testing.T) {
	const lag, bound = 300 * time.Millisecond, 150 * time.Millisecond
	// An in-flight gate far above this test's load admits everything; it
	// is here for QueueDepth, which counts the MultiGet while it lags.
	s := testServerOptions(t, ServerOptions{Capacity: 1 << 20, Admission: AdmissionConfig{MaxInFlight: 8}})
	c, err := NewClient(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cluster, err := NewCluster([]string{s.Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	if err := c.Put(bg, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.SetFault(FaultConfig{Lag: lag, Ops: FaultMultiGet})

	for _, tc := range []struct {
		name     string
		multiGet func([]string) ([][]byte, error)
		get      func(string) ([]byte, bool, error)
	}{
		{"client",
			func(keys []string) ([][]byte, error) { return c.MultiGet(bg, keys) },
			func(key string) ([]byte, bool, error) { return c.Get(bg, key) }},
		{"cluster", cluster.MultiGet, cluster.Get},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := make(chan error, 1)
			//lint:allow goroutine one MultiGet whose result lands in the buffered batch channel; the test waits for it below
			go func() {
				_, err := tc.multiGet([]string{"k", "absent"})
				batch <- err
			}()
			for s.QueueDepth() == 0 { // wait until the shard is serving the batch
				select {
				case err := <-batch:
					t.Fatalf("MultiGet returned (%v) before the shard served it", err)
				case <-time.After(time.Millisecond):
				}
			}
			start := time.Now()
			v, found, err := tc.get("k")
			elapsed := time.Since(start)
			if err != nil || !found || string(v) != "v" {
				t.Fatalf("Get = %q, %v, %v", v, found, err)
			}
			if elapsed >= bound {
				t.Errorf("Get took %v behind a MultiGet lagged %v, want < %v", elapsed, lag, bound)
			}
			if err := <-batch; err != nil {
				t.Fatalf("lagged MultiGet: %v", err)
			}
		})
	}
}
