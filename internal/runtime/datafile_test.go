package runtime

import (
	"path/filepath"
	"testing"

	"repro/internal/datafile"
	"repro/internal/dataset"
	"repro/internal/loader"
)

func TestFileBackedPFS(t *testing.T) {
	opts := testOptions(t, loader.NoPFS(2, 8), 1, 2)
	path := filepath.Join(t.TempDir(), "ds.lobster")
	if err := datafile.Write(path, opts.Dataset); err != nil {
		t.Fatal(err)
	}
	opts.DataFilePath = path
	stats, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(stats.Iterations) * uint64(2*opts.Model.BatchSize)
	if stats.SamplesVerified != want {
		t.Fatalf("verified %d/%d from file-backed PFS", stats.SamplesVerified, want)
	}
	if stats.PFSReads == 0 {
		t.Fatal("no PFS reads recorded")
	}
	checkOracle(t, opts, stats)
}

func TestFileBackedPFSRejectsMismatch(t *testing.T) {
	opts := testOptions(t, loader.NoPFS(2, 8), 1, 1)
	path := filepath.Join(t.TempDir(), "wrong.lobster")
	// Pack a dataset generated with another seed: the store must refuse it.
	other, err := dataset.Generate(dataset.Spec{
		Name: "rt", NumSamples: opts.Dataset.Len(), MeanSize: 8 << 10, Classes: 4, Seed: opts.Seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := datafile.Write(path, other); err != nil {
		t.Fatal(err)
	}
	opts.DataFilePath = path
	if _, err := Run(opts); err == nil {
		t.Fatal("mismatched data file accepted")
	}
	opts.DataFilePath = filepath.Join(t.TempDir(), "missing")
	if _, err := Run(opts); err == nil {
		t.Fatal("missing data file accepted")
	}
}
