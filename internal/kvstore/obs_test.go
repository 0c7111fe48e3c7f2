package kvstore

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestClientInstruments checks the pipelined client records per-op
// latency, in-flight, and TooLarge refusals into an attached registry.
func TestClientInstruments(t *testing.T) {
	s := testServer(t, 10)
	c := testClient(t, s)
	reg := obs.NewRegistry()
	ins := NewClientInstruments(reg, "0")
	c.SetInstruments(ins)

	if err := c.Put(bg, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "k"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(bg, "big", make([]byte, 100)); err == nil {
		t.Fatal("oversized Put must fail")
	}
	_ = c.MultiPut(bg, []string{"a", "big2"}, [][]byte{[]byte("x"), make([]byte, 100)})
	if _, err := c.MultiGet(bg, []string{"a", "k"}); err != nil {
		t.Fatal(err)
	}

	if got := ins.PutSeconds.Count(); got != 2 {
		t.Fatalf("put observations = %d, want 2", got)
	}
	if got := ins.GetSeconds.Count(); got != 1 {
		t.Fatalf("get observations = %d, want 1", got)
	}
	if got := ins.MultiGetSeconds.Count(); got != 1 {
		t.Fatalf("multiget observations = %d, want 1", got)
	}
	if got := ins.MultiPutSeconds.Count(); got != 1 {
		t.Fatalf("multiput observations = %d, want 1", got)
	}
	// One refusal from Put, one from the MultiPut batch.
	if got := ins.TooLarge.Value(); got != 2 {
		t.Fatalf("toolarge = %d, want 2", got)
	}
	if got := ins.InFlight.Value(); got != 0 {
		t.Fatalf("in-flight after quiesce = %d, want 0", got)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lobster_kvstore_op_seconds_count{op="put",shard="0"} 2`,
		`lobster_kvstore_client_toolarge_total{shard="0"} 2`,
		`lobster_kvstore_inflight_ops{shard="0"} 0`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestClusterInstrument checks Cluster.Instrument attaches per-shard
// instruments to every shard client.
func TestClusterInstrument(t *testing.T) {
	s0 := testServer(t, 1<<20)
	s1 := testServer(t, 1<<20)
	cl, err := NewCluster([]string{s0.Addr(), s1.Addr()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := obs.NewRegistry()
	cl.Instrument(reg)

	for i := 0; i < 16; i++ {
		if err := cl.Put(string(rune('a'+i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `op="put",shard="0"`) ||
		!strings.Contains(sb.String(), `op="put",shard="1"`) {
		t.Fatalf("scrape missing per-shard series:\n%s", sb.String())
	}
}

// TestInstrumentServer checks the shard server's counters surface
// through a registry at scrape time.
func TestInstrumentServer(t *testing.T) {
	s := testServer(t, 1<<20)
	reg := obs.NewRegistry()
	InstrumentServer(reg, s)
	c := testClient(t, s)
	if err := c.Put(bg, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "k"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "missing"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"lobster_kvstore_shard_items 1",
		"lobster_kvstore_shard_hits_total 1",
		"lobster_kvstore_shard_misses_total 1",
		"lobster_kvstore_shard_toolarge_total 0",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape missing %q:\n%s", want, sb.String())
		}
	}
}
