package datafile

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

// FuzzOpen feeds arbitrary bytes to the file parser: Open must never
// panic and must reject anything that is not a well-formed file (or
// produce a reader whose reads are themselves safe).
func FuzzOpen(f *testing.F) {
	// Seed corpus: a real file, plus truncations and header mutations.
	ds, err := dataset.Generate(dataset.Spec{
		Name: "fz", NumSamples: 5, MeanSize: 256, Classes: 1, Seed: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	good := filepath.Join(dir, "good")
	if err := Write(good, ds); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:10])
	f.Add(data[:headerSize])
	f.Add([]byte(Magic))
	corrupt := append([]byte(nil), data...)
	corrupt[9] = 0xFF // absurd sample count
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, blob []byte) {
		path := filepath.Join(t.TempDir(), "fuzz")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Skip()
		}
		r, err := Open(path, true)
		if err != nil {
			return
		}
		defer r.Close()
		// Any reader that Open accepted must answer reads without
		// panicking; errors are fine.
		for i := 0; i < r.Len() && i < 16; i++ {
			_, _ = r.Read(dataset.SampleID(i))
		}
	})
}
