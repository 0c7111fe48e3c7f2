package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

var update = flag.Bool("update", false, "rewrite testdata/tiny.json from this run")

const tinyGoldenPath = "testdata/tiny.json"

// TestTinyReportsMatchGolden pins every headline value of every
// deterministic experiment at tiny scale, compared exactly (JSON float64
// round-trips bit for bit). ext-chaos is left out: its rows come from
// live wall-clock runs. Regenerate with `go test -run
// TestTinyReportsMatchGolden ./internal/experiments -update`.
func TestTinyReportsMatchGolden(t *testing.T) {
	got := map[string]map[string]float64{}
	for _, e := range All() {
		if e.ID == "ext-chaos" {
			continue
		}
		rep, err := e.Run(Params{Scale: dataset.ScaleTiny, Seed: 42})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got[e.ID] = rep.Values
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(tinyGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tinyGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(tinyGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for id, wv := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: pinned but no longer run", id)
		}
		for k, w := range wv {
			if g, ok := got[id][k]; !ok {
				t.Errorf("%s.%s: pinned %v, no longer reported", id, k, w)
			} else if g != w {
				t.Errorf("%s.%s = %v, golden %v", id, k, g, w)
			}
		}
	}
	for id, gv := range got {
		for k, g := range gv {
			if _, ok := want[id][k]; !ok {
				t.Errorf("%s.%s = %v is not pinned (run with -update)", id, k, g)
			}
		}
	}
}
