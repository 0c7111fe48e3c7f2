package experiments

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/par"
)

// golden renders everything an experiment reports — the human-readable
// lines and the machine-readable headline values — as one comparable blob.
func golden(t *testing.T, id string, p Params) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Text() + strings.Join(rep.SortedValues(), "\n")
}

// TestReportsIdenticalAcrossPoolWidths is the fan-out determinism
// contract: the same experiment produces a byte-identical report whether
// its campaigns run serially, on a width-8 pool, or on a second repeated
// same-seed run. Parallelism may only change wall time, never a reported
// number. fig07d exercises the deepest fan-out (eight campaigns across
// four node counts); fig09 covers the pipeline.Train path.
func TestReportsIdenticalAcrossPoolWidths(t *testing.T) {
	for _, id := range []string{"fig07d", "fig09"} {
		serial := Params{Scale: dataset.ScaleTiny, Seed: 42}
		want := golden(t, id, serial)
		if again := golden(t, id, serial); again != want {
			t.Fatalf("%s: same-seed serial reruns differ:\n--- first\n%s\n--- second\n%s", id, want, again)
		}
		wide := serial
		wide.Pool = par.NewPool(8)
		if got := golden(t, id, wide); got != want {
			t.Fatalf("%s: -parallel 8 report differs from serial:\n--- serial\n%s\n--- parallel\n%s", id, want, got)
		}
	}
}
