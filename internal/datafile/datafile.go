// Package datafile defines the packed on-disk dataset format the PFS
// store can serve real bytes from: one data file holding all sample
// payloads back to back, fronted by an index of (offset, length, checksum)
// records — the shape of the RecordIO/tar-style shards ImageNet is
// actually stored in on Lustre ("the training datasets are stored on a
// Lustre parallel file system mount point", Section 5.1).
//
// Layout (all integers little-endian):
//
//	header : magic "LOBSTR01" (8) | sampleCount u64 | seed u64
//	index  : sampleCount x { offset u64 | length u32 | crc32 u32 }
//	data   : concatenated payloads
//
// The file is self-verifying: every read can be checked against its CRC,
// and the whole file against the dataset generator.
package datafile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/dataset"
)

// Magic identifies the format (and its version).
const Magic = "LOBSTR01"

const headerSize = 8 + 8 + 8
const indexEntrySize = 8 + 4 + 4

// Write packs the dataset's payloads into path. Payloads are generated
// deterministically from (ds.Seed(), id), and the header records that
// seed, so the file is reproducible bit-for-bit and names the bytes it
// holds.
func Write(path string, ds *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("datafile: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)

	n := ds.Len()
	// Header.
	if _, err := w.WriteString(Magic); err != nil {
		return err
	}
	// bufio.Writer errors are sticky: later Writes are no-ops after a
	// failure and the Flush below surfaces the first error.
	put := func(b []byte) { _, _ = w.Write(b) }
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(n))
	put(u64[:])
	binary.LittleEndian.PutUint64(u64[:], ds.Seed())
	put(u64[:])

	// Both passes regenerate each payload into one reused buffer.
	var buf []byte
	fill := func(id dataset.SampleID) []byte {
		size := int(ds.Size(id))
		if cap(buf) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		dataset.FillPayload(buf, ds.Seed(), id)
		return buf
	}

	// Index: offsets are relative to the start of the data section.
	offset := uint64(0)
	for i := 0; i < n; i++ {
		id := dataset.SampleID(i)
		size := uint64(ds.Size(id))
		payload := fill(id)
		binary.LittleEndian.PutUint64(u64[:], offset)
		put(u64[:])
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], uint32(size))
		put(u32[:])
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(payload))
		put(u32[:])
		offset += size
	}
	// Data.
	for i := 0; i < n; i++ {
		if _, err := w.Write(fill(dataset.SampleID(i))); err != nil {
			return fmt.Errorf("datafile: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("datafile: %w", err)
	}
	return f.Sync()
}

// indexEntry is one sample's location.
type indexEntry struct {
	offset uint64
	length uint32
	crc    uint32
}

// Reader serves random sample reads from a packed file. Safe for
// concurrent use: reads go through ReadAt.
type Reader struct {
	f        *os.File
	index    []indexEntry
	dataOff  int64
	seed     uint64
	verified bool // verify CRC on every read
}

// Open loads the index (16 bytes per sample) into memory and leaves
// payload reads to positional I/O against the file, so concurrent readers
// share one descriptor without seek contention.
func Open(path string, verify bool) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("datafile: %w", err)
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		_ = f.Close() // read-only descriptor; the read error is what matters
		return nil, fmt.Errorf("datafile: header: %w", err)
	}
	if string(hdr[:8]) != Magic {
		_ = f.Close()
		return nil, fmt.Errorf("datafile: bad magic %q", hdr[:8])
	}
	count := binary.LittleEndian.Uint64(hdr[8:16])
	seed := binary.LittleEndian.Uint64(hdr[16:24])
	if count > 1<<31 {
		_ = f.Close()
		return nil, fmt.Errorf("datafile: implausible sample count %d", count)
	}
	r := &Reader{
		f:        f,
		index:    make([]indexEntry, count),
		dataOff:  int64(headerSize) + int64(count)*indexEntrySize,
		seed:     seed,
		verified: verify,
	}
	buf := bufio.NewReaderSize(f, 1<<20)
	entry := make([]byte, indexEntrySize)
	for i := range r.index {
		if _, err := io.ReadFull(buf, entry); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("datafile: index: %w", err)
		}
		r.index[i] = indexEntry{
			offset: binary.LittleEndian.Uint64(entry[0:8]),
			length: binary.LittleEndian.Uint32(entry[8:12]),
			crc:    binary.LittleEndian.Uint32(entry[12:16]),
		}
	}
	return r, nil
}

// Len returns the sample count.
func (r *Reader) Len() int { return len(r.index) }

// Seed returns the generation seed recorded in the header.
func (r *Reader) Seed() uint64 { return r.seed }

// Size returns sample id's payload length.
func (r *Reader) Size(id dataset.SampleID) (int64, error) {
	if int(id) < 0 || int(id) >= len(r.index) {
		return 0, fmt.Errorf("datafile: sample %d out of range", id)
	}
	return int64(r.index[id].length), nil
}

// Read returns sample id's payload, verifying its CRC when the reader was
// opened with verification.
func (r *Reader) Read(id dataset.SampleID) ([]byte, error) {
	if int(id) < 0 || int(id) >= len(r.index) {
		return nil, fmt.Errorf("datafile: sample %d out of range", id)
	}
	e := r.index[id]
	buf := make([]byte, e.length)
	if _, err := r.f.ReadAt(buf, r.dataOff+int64(e.offset)); err != nil {
		return nil, fmt.Errorf("datafile: read sample %d: %w", id, err)
	}
	if r.verified {
		if got := crc32.ChecksumIEEE(buf); got != e.crc {
			return nil, fmt.Errorf("datafile: sample %d corrupt (crc %08x, want %08x)", id, got, e.crc)
		}
	}
	return buf, nil
}

// Close releases the file.
func (r *Reader) Close() error { return r.f.Close() }

// Verify checks every record's CRC (a full-file fsck).
func (r *Reader) Verify() error {
	for i := range r.index {
		if _, err := r.Read(dataset.SampleID(i)); err != nil {
			return err
		}
	}
	return nil
}
