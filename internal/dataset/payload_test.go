package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// payloadPaths are the payload paths this CPU runs: the portable lanes,
// and the AVX-512 lanes when the package selected them at init.
var payloadPaths = map[bool]string{false: "portable"}

func init() {
	if useAVX512 {
		payloadPaths[true] = "simd"
	}
}

// onEachPath runs fn once per payload path this CPU runs, with the path
// selected, and restores the selection afterwards.
func onEachPath(fn func(path string)) {
	defer func(selected bool) { useAVX512 = selected }(useAVX512)
	for _, simd := range []bool{true, false} {
		if path, ok := payloadPaths[simd]; ok {
			useAVX512 = simd
			fn(path)
		}
	}
}

// wantPayload is the serial oracle: sample id's payload of size bytes by
// the format's definition — the header, then the xorshift words of
// DeriveSeed(seed, id+1), one chain, as a little-endian byte stream cut
// off at size.
func wantPayload(seed uint64, id SampleID, size int) []byte {
	var stream []byte
	stream = binary.LittleEndian.AppendUint32(stream, uint32(id))
	stream = binary.LittleEndian.AppendUint64(stream, uint64(size))
	for state := stats.DeriveSeed(seed, uint64(id)+1); len(stream) < size; {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		stream = binary.LittleEndian.AppendUint64(stream, state)
	}
	return stream[:size]
}

// lanePayloadSize ends a payload inside its third eight-lane group (the
// second four-lane one), partway through a segment, with a 5-byte tail:
// 621 words = 2·256 + 3·32 + 13.
const lanePayloadSize = PayloadHeaderSize + 621*8 + 5

func TestPayloadRoundTrip(t *testing.T) {
	spec := Spec{Name: "p", NumSamples: 50, MeanSize: 32 << 10, SigmaLog: 0.5, Classes: 3, Seed: 9}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	onEachPath(func(path string) {
		for i := 0; i < d.Len(); i++ {
			id := SampleID(i)
			p := d.Payload(id)
			if int64(len(p)) != d.Size(id) {
				t.Fatalf("%s: payload length %d != size %d", path, len(p), d.Size(id))
			}
			if err := VerifyPayload(p, spec.Seed, id); err != nil {
				t.Fatalf("%s: verify failed: %v", path, err)
			}
		}
	})
}

func TestVerifyPayloadDetectsCorruption(t *testing.T) {
	spec := Spec{Name: "v", NumSamples: 3, MeanSize: 8 << 10, Classes: 1, Seed: 2}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Payload(0)
	p[0] ^= 0xFF // corrupt the header id
	if err := VerifyPayload(p, spec.Seed, 0); err == nil {
		t.Fatal("corrupted header not detected")
	}
	q := d.Payload(1)
	if err := VerifyPayload(q, spec.Seed, 2); err == nil {
		t.Fatal("wrong-id payload not detected")
	}
	// A byte strictly between two probes of a 64-probe sparse check
	// (probes every len/64+1 bytes): only a full comparison sees it.
	r := d.Payload(2)
	off := (len(r)/64 + 1) * 3 / 2
	r[off] ^= 0x01
	if err := VerifyPayload(r, spec.Seed, 2); err == nil {
		t.Fatalf("body corruption at offset %d not detected", off)
	}
}

// TestVerifyPayloadAllocationFree pins the verifier at zero allocations:
// it runs once per value every kv read returns.
func TestVerifyPayloadAllocationFree(t *testing.T) {
	const seed, id = 3, SampleID(7)
	onEachPath(func(path string) {
		for _, size := range []int{0, 5, PayloadHeaderSize, 8<<10 + 3} {
			p := make([]byte, size)
			FillPayload(p, seed, id)
			if allocs := testing.AllocsPerRun(100, func() {
				if err := VerifyPayload(p, seed, id); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("%s: size %d: VerifyPayload allocates %.1f times per call", path, size, allocs)
			}
		}
	})
}

// TestFillPayloadAllocationFree pins the generator at zero allocations:
// the PFS regenerates every sample it serves into a pooled buffer.
func TestFillPayloadAllocationFree(t *testing.T) {
	const seed, id = 3, SampleID(7)
	onEachPath(func(path string) {
		for _, size := range []int{0, 5, PayloadHeaderSize, 8<<10 + 3} {
			p := make([]byte, size)
			if allocs := testing.AllocsPerRun(100, func() {
				FillPayload(p, seed, id)
			}); allocs != 0 {
				t.Fatalf("%s: size %d: FillPayload allocates %.1f times per call", path, size, allocs)
			}
		}
	})
}

// TestVerifyPayloadReportsFirstCorruptByte flips each byte of a payload in
// turn, header and tail included, and checks the error names its offset:
// a short payload, and one that crosses every lane, segment and group
// boundary of both paths and ends in a partial group and a tail.
func TestVerifyPayloadReportsFirstCorruptByte(t *testing.T) {
	const seed, id = 5, SampleID(9)
	onEachPath(func(path string) {
		for _, size := range []int{45, lanePayloadSize} { // 45: header, four words, a 1-byte tail
			p := make([]byte, size)
			FillPayload(p, seed, id)
			for off := range p {
				p[off] ^= 0x80
				err := VerifyPayload(p, seed, id)
				p[off] ^= 0x80
				if err == nil {
					t.Fatalf("%s: size %d: flip at offset %d not detected", path, size, off)
				}
				if off >= 4 && !strings.HasSuffix(err.Error(), fmt.Sprintf("at offset %d", off)) {
					t.Fatalf("%s: size %d: flip at offset %d: %v", path, size, off, err)
				}
			}
			// Two bad bytes, the later one generated first (word 288 is in
			// the first block of its segment, word 283 in the last block
			// of the one before): the lower offset is the one reported.
			first, second := PayloadHeaderSize+283*8+3, PayloadHeaderSize+288*8
			if second < len(p) {
				p[first] ^= 1
				p[second] ^= 1
				err := VerifyPayload(p, seed, id)
				p[first] ^= 1
				p[second] ^= 1
				if want := fmt.Sprintf("at offset %d", first); err == nil || !strings.HasSuffix(err.Error(), want) {
					t.Fatalf("%s: size %d: two flips: %v, want %s", path, size, err, want)
				}
			}
		}
	})
}

func TestPayloadDiffersAcrossSamples(t *testing.T) {
	spec := Spec{Name: "u", NumSamples: 2, MeanSize: 4096, Classes: 1, Seed: 4}
	d, _ := Generate(spec)
	a, b := d.Payload(0), d.Payload(1)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if float64(same)/float64(len(a)) > 0.1 {
		t.Fatalf("payloads of different samples are %d/%d identical", same, len(a))
	}
}

func TestFillPayloadPropertyDeterministic(t *testing.T) {
	f := func(seed uint64, idRaw uint16, szRaw uint16) bool {
		sz := int(szRaw%4096) + 1
		id := SampleID(idRaw)
		a := make([]byte, sz)
		b := make([]byte, sz)
		FillPayload(a, seed, id)
		FillPayload(b, seed, id)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return VerifyPayload(a, seed, id) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFillPayloadMatchesByteStream holds FillPayload to the definition of
// the payload format (wantPayload) on both paths: every length from an
// empty buffer through three whole eight-lane groups and one more word,
// so every header cut, every partial group and every tail length.
func TestFillPayloadMatchesByteStream(t *testing.T) {
	const seed, id = 11, SampleID(5)
	const maxSize = PayloadHeaderSize + 3*8*segBytes + 8
	onEachPath(func(path string) {
		for size := 0; size <= maxSize; size++ {
			got := make([]byte, size)
			FillPayload(got, seed, id)
			if want := wantPayload(seed, id, size); !bytes.Equal(got, want) {
				off := 0
				for got[off] == want[off] {
					off++
				}
				t.Fatalf("%s: size %d: first difference at offset %d: %#x, want %#x", path, size, off, got[off], want[off])
			}
		}
	})
}

// TestFillPayloadBytesPinned pins FillPayload's actual bytes, on both
// paths, by the length and CRC-32 of the concatenated payloads of a
// 200-sample dataset: a change to the generator that moves any byte fails
// here, even one that wantPayload's definition drifts along with.
func TestFillPayloadBytesPinned(t *testing.T) {
	const seed = 33
	d, err := Generate(Spec{
		Name: "pin", NumSamples: 200, MeanSize: 4 << 10, SigmaLog: 0.5,
		MinSize: 64, Classes: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	onEachPath(func(path string) {
		h := crc32.NewIEEE()
		n := 0
		for i := 0; i < d.Len(); i++ {
			buf := make([]byte, d.Size(SampleID(i)))
			FillPayload(buf, seed, SampleID(i))
			h.Write(buf)
			n += len(buf)
		}
		if got := h.Sum32(); n != 795847 || got != 0x94587976 {
			t.Fatalf("%s: %d payload bytes, CRC-32 %#08x; want 795847 bytes, CRC-32 0x94587976", path, n, got)
		}
	})
}

// TestPayloadPathSelected catches a CPU probe that disagrees with
// /proc/cpuinfo: the AVX-512 lanes must be selected exactly when the CPU
// lists avx512f. It logs the paths that ran, so a machine without it
// shows up as portable-only.
func TestPayloadPathSelected(t *testing.T) {
	if goruntime.GOOS != "linux" || goruntime.GOARCH != "amd64" {
		t.Skip("reads /proc/cpuinfo; the AVX-512 lanes are amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	listed := slices.Contains(strings.Fields(string(info)), "avx512f")
	if useAVX512 != listed {
		t.Fatalf("useAVX512 = %v, /proc/cpuinfo lists avx512f: %v", useAVX512, listed)
	}
	if useAVX512 {
		t.Log("payload paths: simd (AVX-512F) and portable")
	} else {
		t.Log("payload paths: portable only (no AVX-512F)")
	}
}

// FuzzPayloadStream checks both paths against the serial oracle for
// arbitrary (seed, id, length): FillPayload writes wantPayload's bytes,
// VerifyPayload accepts them, and, with the byte at corrupt (mod length)
// flipped, rejects them naming that offset.
func FuzzPayloadStream(f *testing.F) {
	f.Add(uint64(11), uint32(5), uint16(45), uint16(44))
	f.Add(uint64(7), uint32(3), uint16(8180), uint16(8179))
	f.Add(uint64(1), uint32(0), uint16(lanePayloadSize), uint16(PayloadHeaderSize+2048))
	f.Add(uint64(0), uint32(1<<31), uint16(3), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, rawID uint32, length uint16, corrupt uint16) {
		id, size := SampleID(rawID), int(length)
		want := wantPayload(seed, id, size)
		onEachPath(func(path string) {
			got := make([]byte, size)
			FillPayload(got, seed, id)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: seed %d id %d size %d: payload differs from the serial stream", path, seed, id, size)
			}
			if err := VerifyPayload(got, seed, id); err != nil {
				t.Fatalf("%s: seed %d id %d size %d: %v", path, seed, id, size, err)
			}
			if size == 0 {
				return
			}
			off := int(corrupt) % size
			got[off] ^= 0xa5
			err := VerifyPayload(got, seed, id)
			if err == nil {
				t.Fatalf("%s: seed %d id %d size %d: flip at offset %d not detected", path, seed, id, size, off)
			}
			if off >= 4 && !strings.HasSuffix(err.Error(), fmt.Sprintf("at offset %d", off)) {
				t.Fatalf("%s: seed %d id %d size %d: flip at offset %d: %v", path, seed, id, size, off, err)
			}
		})
	})
}

// BenchmarkFillPayload and BenchmarkVerifyPayload time one 8180-byte
// payload (a body that ends inside a group, with a 4-byte tail) on each
// payload path this CPU runs.
func BenchmarkFillPayload(b *testing.B) {
	benchPayload(b, func(p []byte) { FillPayload(p, 7, 3) })
}

func BenchmarkVerifyPayload(b *testing.B) {
	benchPayload(b, func(p []byte) {
		if err := VerifyPayload(p, 7, 3); err != nil {
			b.Fatal(err)
		}
	})
}

func benchPayload(b *testing.B, op func(p []byte)) {
	const size = 8180
	p := make([]byte, size)
	FillPayload(p, 7, 3)
	onEachPath(func(path string) {
		b.Run(path, func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op(p)
			}
		})
	})
}
