package repro

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesAndCLI builds every example and the lobster-sim command, runs
// each example and each lobster-sim subcommand at tiny scale, and checks
// that the output carries its headline line and that an unknown
// subcommand fails.
func TestExamplesAndCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...", "./cmd/lobster-sim")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"evictionstudy", nil, "Belady is the clairvoyant upper bound"},
		{"threadtuning", nil, "all verified: true"},
		{"lobster-sim", []string{"-scale", "tiny", "-epochs", "2"}, "batch times:"},
		{"lobster-sim", []string{"-compare", "-json", "-scale", "tiny", "-epochs", "2"}, `"strategy": "nopfs"`},
		{"lobster-sim", []string{"plan", "-iterations", "4"}, "per-node threads"},
		{"lobster-sim", []string{"trace", "-nodes", "1", "-epochs", "2", "-gpus", "0,1"}, "bottleneck shifts:"},
		{"lobster-sim", []string{"figures", "-scale", "tiny", "-experiment", "fig06"}, "== fig06:"},
	} {
		name := strings.Join(append([]string{c.name}, c.args...), " ")
		out, err := exec.Command(filepath.Join(bin, c.name), c.args...).CombinedOutput()
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", name, c.want, out)
		}
	}
	out, err := exec.Command(filepath.Join(bin, "lobster-sim"), "bogus").CombinedOutput()
	if err == nil {
		t.Fatalf("lobster-sim bogus exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), `unknown subcommand "bogus"`) {
		t.Fatalf("lobster-sim bogus: %s", out)
	}
}
