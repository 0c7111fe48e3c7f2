package datafile

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

func testFile(t *testing.T) (string, *dataset.Dataset, uint64) {
	t.Helper()
	const seed = 33
	ds, err := dataset.Generate(dataset.Spec{
		Name: "df", NumSamples: 200, MeanSize: 4 << 10, SigmaLog: 0.5,
		MinSize: 64, Classes: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.lobster")
	if err := Write(path, ds); err != nil {
		t.Fatal(err)
	}
	return path, ds, seed
}

func TestWriteOpenRoundTrip(t *testing.T) {
	path, ds, seed := testFile(t)
	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != ds.Len() {
		t.Fatalf("Len = %d, want %d", r.Len(), ds.Len())
	}
	if r.Seed() != seed {
		t.Fatalf("Seed = %d, want %d", r.Seed(), seed)
	}
	for i := 0; i < ds.Len(); i++ {
		id := dataset.SampleID(i)
		sz, err := r.Size(id)
		if err != nil {
			t.Fatal(err)
		}
		if sz != ds.Size(id) {
			t.Fatalf("sample %d size %d, want %d", i, sz, ds.Size(id))
		}
		payload, err := r.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := dataset.VerifyPayload(payload, seed, id); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	if err := r.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBytesPinned pins the whole packed file of testFile's dataset,
// header, index and data, by its length and CRC-32: a change to the
// payload generator or the format that moves any byte fails here.
func TestWriteBytesPinned(t *testing.T) {
	path, _, _ := testFile(t)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := crc32.ChecksumIEEE(b); len(b) != 799071 || got != 0xd9801a53 {
		t.Fatalf("file of %d bytes, CRC-32 %#08x; want 799071 bytes, CRC-32 0xd9801a53", len(b), got)
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad")
	if err := os.WriteFile(path, []byte("NOTLOBSTERFILE..................."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, false); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), false); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestOpenRejectsTruncatedIndex(t *testing.T) {
	path, _, _ := testFile(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc")
	if err := os.WriteFile(trunc, data[:40], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(trunc, false); err == nil {
		t.Fatal("truncated index accepted")
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	path, _, _ := testFile(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep in the data section.
	data[len(data)-10] ^= 0xFF
	corrupt := filepath.Join(t.TempDir(), "corrupt")
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(corrupt, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Verify(); err == nil {
		t.Fatal("corruption not detected by Verify")
	}
	// Without verification the read succeeds (caller's choice).
	r2, err := Open(corrupt, false)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Verify(); err != nil {
		t.Fatal("unverified reader should not check CRCs")
	}
}

func TestReadOutOfRange(t *testing.T) {
	path, ds, _ := testFile(t)
	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Read(dataset.SampleID(ds.Len())); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := r.Size(-1); err == nil {
		t.Fatal("negative id accepted")
	}
}

func TestWriteDeterministic(t *testing.T) {
	path1, ds, _ := testFile(t)
	path2 := filepath.Join(t.TempDir(), "again")
	if err := Write(path2, ds); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(path1)
	b, _ := os.ReadFile(path2)
	if len(a) != len(b) {
		t.Fatalf("file sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("files differ at byte %d", i)
		}
	}
}

func TestConcurrentReads(t *testing.T) {
	path, ds, seed := testFile(t)
	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		//lint:allow goroutine each worker sends exactly one result on the buffered done channel, which the loop below drains
		go func() {
			for i := g; i < ds.Len(); i += 8 {
				p, err := r.Read(dataset.SampleID(i))
				if err != nil {
					done <- err
					return
				}
				if err := dataset.VerifyPayload(p, seed, dataset.SampleID(i)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
