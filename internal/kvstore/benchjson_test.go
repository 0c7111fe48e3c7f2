package kvstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestBenchKVJSON is the benchmark-recording harness behind
// `make bench-kv`.
//
// Default (no env) it is a CI-safe smoke test: it drives a few hundred
// ops through the client against a live server and fails on any
// protocol error — enough to catch a broken frame encoder without
// burning benchmark time in `go test ./...`.
//
// With LOBSTER_BENCH_KV=tiny it runs the sustained-overload bench at
// verify.sh scale, writes its JSON to a temp file, and schema-checks
// both that file and the committed BENCH_kv.json for the
// goodput/shed/p999 fields.
//
// With LOBSTER_BENCH_KV=1 it runs the kvstore micro-benchmarks via
// testing.Benchmark plus the full-size overload phases and
// writes the results (ops/sec, B/op, allocs/op, p99, goodput, shed
// rates, tail quantiles) to BENCH_kv.json at the repository root.
func TestBenchKVJSON(t *testing.T) {
	switch os.Getenv("LOBSTER_BENCH_KV") {
	case "":
		benchSmoke(t)
	case "tiny":
		benchTiny(t)
	default:
		benchFull(t)
	}
}

func benchSmoke(t *testing.T) {
	s, err := newBenchServer()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	window := make([]string, 16)
	for i := range window {
		window[i] = benchKey(i)
	}
	c, err := NewClient(s.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		v, found, err := c.Get(bg, benchKey(i%benchKeys))
		if err != nil || !found || len(v) != benchValBytes {
			t.Fatalf("smoke Get: len=%d found=%v err=%v", len(v), found, err)
		}
	}
	vals, err := c.MultiGet(bg, window)
	if err != nil {
		t.Fatalf("smoke MultiGet: %v", err)
	}
	for i, v := range vals {
		if len(v) != benchValBytes {
			t.Fatalf("smoke MultiGet[%d]: len=%d", i, len(v))
		}
	}
	if err := c.Put(bg, "smoke", []byte("x")); err != nil {
		t.Fatalf("smoke Put: %v", err)
	}
}

// benchTiny runs the overload bench at smoke scale, writes its JSON to
// a temp file, and schema-checks it alongside the committed
// BENCH_kv.json. This is the verify.sh gate for the tail-latency
// section: it proves the bench runs end to end and that
// the recorded schema carries the goodput/shed/p999 fields.
func benchTiny(t *testing.T) {
	overload, env := runOverloadBench(t, overloadTiny)
	out := struct {
		Generated string         `json:"generated"`
		GoVersion string         `json:"go_version"`
		Overload  overloadReport `json:"sustained_overload"`
		Env       benchEnv       `json:"env"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Overload:  overload,
		Env:       env,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_kv_tiny.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	schemaCheckBenchKV(t, path)
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	schemaCheckBenchKV(t, filepath.Join(root, "BENCH_kv.json"))
}

// schemaCheckBenchKV asserts the tail-latency fields this PR adds are
// present and sane in a BENCH_kv.json-shaped file.
func schemaCheckBenchKV(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("schema check: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("schema check %s: %v", path, err)
	}
	num := func(keypath ...string) float64 {
		var cur any = doc
		for _, k := range keypath {
			m, ok := cur.(map[string]any)
			if !ok {
				t.Fatalf("schema check %s: %v is not an object at %q", path, keypath, k)
			}
			cur, ok = m[k]
			if !ok {
				t.Fatalf("schema check %s: missing field %v", path, keypath)
			}
			if k == "phases" {
				arr, ok := cur.([]any)
				if !ok || len(arr) == 0 {
					t.Fatalf("schema check %s: %v has no phases", path, keypath)
				}
				cur = arr[0]
			}
		}
		v, ok := cur.(float64)
		if !ok {
			t.Fatalf("schema check %s: %v is not a number", path, keypath)
		}
		return v
	}
	if v := num("sustained_overload", "saturation_ops_per_sec"); v <= 0 {
		t.Fatalf("schema check %s: saturation_ops_per_sec = %v, want > 0", path, v)
	}
	if v := num("sustained_overload", "goodput_ratio_at_10x"); v < 0.8 {
		t.Fatalf("schema check %s: goodput_ratio_at_10x = %v, want >= 0.8", path, v)
	}
	num("sustained_overload", "phases", "goodput_ops_per_sec")
	num("sustained_overload", "phases", "shed_rate_per_sec")
	num("sustained_overload", "phases", "shed_deadline")
	num("sustained_overload", "phases", "p99_ms")
	num("sustained_overload", "phases", "p999_ms")
	num("sustained_overload", "phases", "hist_p999_ms")
	if v := num("env", "gomaxprocs"); v < 1 {
		t.Fatalf("schema check %s: gomaxprocs = %v", path, v)
	}
	num("env", "goroutines_overload")
	num("env", "histogram_samples")
}

// benchEntry is one benchmark row in BENCH_kv.json.
type benchEntry struct {
	Name        string  `json:"name"`
	Clients     int     `json:"clients"`
	NsPerOp     float64 `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	P99Ns       float64 `json:"p99_ns,omitempty"`
}

func toEntry(name string, clients int, r testing.BenchmarkResult) benchEntry {
	ns := float64(r.NsPerOp())
	e := benchEntry{
		Name:        name,
		Clients:     clients,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if ns > 0 {
		e.OpsPerSec = 1e9 / ns
	}
	if p99, ok := r.Extra["p99-ns"]; ok {
		e.P99Ns = p99
	}
	return e
}

func benchFull(t *testing.T) {
	s, err := newBenchServer()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var entries []benchEntry
	for _, clients := range []int{1, 4, 16, 64} {
		r := testing.Benchmark(func(b *testing.B) {
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
		e := toEntry("get", clients, r)
		t.Logf("get/clients=%d: %.0f ops/sec, %d B/op, %d allocs/op, p99 %.0fns",
			clients, e.OpsPerSec, e.BytesPerOp, e.AllocsPerOp, e.P99Ns)
		entries = append(entries, e)
	}

	window := make([]string, 32)
	for k := range window {
		window[k] = benchKey(k * 31 % benchKeys)
	}
	for _, clients := range []int{1, 16} {
		r := testing.Benchmark(func(b *testing.B) {
			c := benchDial(b, s)
			defer c.Close()
			runClients(b, clients, func(g, i int) error {
				_, err := c.MultiGet(bg, window)
				return err
			})
		})
		entries = append(entries, toEntry("multiget-window32", clients, r))
	}

	val := make([]byte, benchValBytes)
	r := testing.Benchmark(func(b *testing.B) {
		c := benchDial(b, s)
		defer c.Close()
		runClients(b, 16, func(g, i int) error {
			return c.Put(bg, benchKey((g*7919+i)%benchKeys), val)
		})
	})
	entries = append(entries, toEntry("put", 16, r))

	overload, env := runOverloadBench(t, overloadFull)

	out := struct {
		Generated string `json:"generated"`
		GoVersion string `json:"go_version"`
		NumCPU    int    `json:"num_cpu"`
		Note      string `json:"note"`
		// SeedBaseline is the pre-rework data path (single-op blocking
		// round trips, unstriped mutex LRU, no pooling) measured at
		// commit dd14fa7 with the same 16-client Get workload on the
		// same machine as the rest of this file.
		SeedBaseline benchEntry   `json:"seed_baseline"`
		Results      []benchEntry `json:"results"`
		// Overload is the tail-latency section (DESIGN.md §11):
		// sustained-overload goodput vs saturation.
		Overload overloadReport `json:"sustained_overload"`
		Env      benchEnv       `json:"env"`
	}{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Note: "get/put: 4KiB values, 1024 keys, one pipelined conn; " +
			"multiget fetches a 32-key window",
		SeedBaseline: benchEntry{
			Name: "get-seed-dd14fa7", Clients: 16,
			NsPerOp: 12008, OpsPerSec: 83278, BytesPerOp: 4162, AllocsPerOp: 9,
		},
		Results:  entries,
		Overload: overload,
		Env:      env,
	}

	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCH_kv.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("go.mod not found above %s", dir)
		}
		dir = parent
	}
}
