package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// goldens are the pinned outputs under bench/golden/.
type goldens struct {
	dir string
	// RT pins Stats.DataFold of one cold epoch: workload -> seed -> fold
	// (decimal string; a uint64 does not survive a JSON number).
	RT map[string]map[string]string
	// Sim pins every Report.Values entry: scale -> figure -> key -> value.
	// encoding/json writes floats in the shortest form that reads back to
	// the same bits, so the comparison is exact.
	Sim map[string]map[string]map[string]float64
}

func loadGoldens(dir string) (*goldens, error) {
	g := &goldens{dir: dir}
	for name, into := range map[string]any{"rt.json": &g.RT, "sim.json": &g.Sim} {
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("golden: %w", err)
		}
		if err := json.Unmarshal(buf, into); err != nil {
			return nil, fmt.Errorf("golden: %s: %w", name, err)
		}
	}
	if g.RT == nil {
		g.RT = map[string]map[string]string{}
	}
	if g.Sim == nil {
		g.Sim = map[string]map[string]map[string]float64{}
	}
	return g, nil
}

func (g *goldens) save() error {
	if err := os.MkdirAll(g.dir, 0o755); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	for name, from := range map[string]any{"rt.json": g.RT, "sim.json": g.Sim} {
		buf, err := json.MarshalIndent(from, "", "  ")
		if err != nil {
			return fmt.Errorf("golden: %s: %w", name, err)
		}
		if err := os.WriteFile(filepath.Join(g.dir, name), append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("golden: %w", err)
		}
	}
	return nil
}

// checkFold compares a cold epoch's DataFold with the pinned one, or
// pins it when updating. A seed without a golden is not an error: the
// run still checks that repeated and instrumented epochs agree.
func (g *goldens) checkFold(workload string, seed, fold uint64, update bool) error {
	key, got := strconv.FormatUint(seed, 10), strconv.FormatUint(fold, 10)
	if update {
		if g.RT[workload] == nil {
			g.RT[workload] = map[string]string{}
		}
		g.RT[workload][key] = got
		return nil
	}
	if want, ok := g.RT[workload][key]; ok && want != got {
		return fmt.Errorf("DataFold %s, golden %s (seed %d)", got, want, seed)
	}
	return nil
}

// checkFigure compares one figure's headline values with the golden,
// exactly, or pins them when updating.
func (g *goldens) checkFigure(scale, id string, values map[string]float64, update bool) error {
	if update {
		if g.Sim[scale] == nil {
			g.Sim[scale] = map[string]map[string]float64{}
		}
		g.Sim[scale][id] = values
		return nil
	}
	want, ok := g.Sim[scale][id]
	if !ok {
		return fmt.Errorf("no golden for %s at scale %s (run with -update-golden)", id, scale)
	}
	if len(want) != len(values) {
		return fmt.Errorf("%s reports %d values, golden has %d", id, len(values), len(want))
	}
	for k, w := range want {
		if v, ok := values[k]; !ok || v != w {
			return fmt.Errorf("%s value %q = %v, golden %v", id, k, v, w)
		}
	}
	return nil
}

// refuseDirtyTree keeps goldens tied to committed code: -update-golden
// is refused while anything outside the benchmark's own files is
// modified.
func refuseDirtyTree() error {
	out, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return fmt.Errorf("-update-golden needs a git checkout: %w", err)
	}
	for _, line := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
		if len(line) < 4 {
			continue
		}
		path := strings.Trim(line[3:], `"`)
		if i := strings.Index(path, " -> "); i >= 0 {
			path = path[i+4:]
		}
		if path != "BENCHMARK.json" && !strings.HasPrefix(path, "bench/") {
			return fmt.Errorf("-update-golden refused: %s has uncommitted changes", path)
		}
	}
	return nil
}
