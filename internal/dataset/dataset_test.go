package dataset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestGenerateValidation(t *testing.T) {
	bad := []Spec{
		{Name: "n", NumSamples: 0, MeanSize: 1, Classes: 1},
		{Name: "m", NumSamples: 1, MeanSize: 0, Classes: 1},
		{Name: "s", NumSamples: 1, MeanSize: 1, SigmaLog: -1, Classes: 1},
		{Name: "c", NumSamples: 1, MeanSize: 1, Classes: 0},
		{Name: "x", NumSamples: 1, MeanSize: 1, Classes: 1, MinSize: 10, MaxSize: 5},
	}
	for _, spec := range bad {
		if _, err := Generate(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Name: "d", NumSamples: 1000, MeanSize: 100 << 10, SigmaLog: 0.4, Classes: 10, Seed: 7}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.Len(); i++ {
		id := SampleID(i)
		if a.Size(id) != b.Size(id) || a.Label(id) != b.Label(id) {
			t.Fatalf("sample %d differs between identical specs", i)
		}
	}
}

func TestGenerateMeanSize(t *testing.T) {
	spec := Spec{Name: "m", NumSamples: 50000, MeanSize: 100 << 10, SigmaLog: 0.45, Classes: 5, Seed: 3}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(d.MeanSize())
	want := float64(spec.MeanSize)
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean size = %g, want within 5%% of %g", mean, want)
	}
	if d.TotalBytes() <= 0 {
		t.Fatal("total bytes not positive")
	}
}

func TestGenerateSizeClamps(t *testing.T) {
	spec := Spec{Name: "c", NumSamples: 20000, MeanSize: 30 << 10, SigmaLog: 1.2,
		MinSize: 10 << 10, MaxSize: 50 << 10, Classes: 2, Seed: 11}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		sz := d.Size(SampleID(i))
		if sz < spec.MinSize || sz > spec.MaxSize {
			t.Fatalf("sample %d size %d outside clamp [%d, %d]", i, sz, spec.MinSize, spec.MaxSize)
		}
	}
}

func TestGenerateConstantSizes(t *testing.T) {
	spec := Spec{Name: "k", NumSamples: 100, MeanSize: 4096, Classes: 1, Seed: 1}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		if d.Size(SampleID(i)) != 4096 {
			t.Fatalf("SigmaLog=0 should give constant sizes, sample %d = %d", i, d.Size(SampleID(i)))
		}
	}
}

func TestLabelsInRange(t *testing.T) {
	spec := Spec{Name: "l", NumSamples: 5000, MeanSize: 1024, SigmaLog: 0.2, Classes: 17, Seed: 5}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for i := 0; i < d.Len(); i++ {
		l := d.Label(SampleID(i))
		if l < 0 || l >= 17 {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	if len(seen) != 17 {
		t.Fatalf("only %d/17 classes observed", len(seen))
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	spec := Spec{Name: "p", NumSamples: 50, MeanSize: 32 << 10, SigmaLog: 0.5, Classes: 3, Seed: 9}
	d, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		id := SampleID(i)
		p := d.Payload(id)
		if int64(len(p)) != d.Size(id) {
			t.Fatalf("payload length %d != size %d", len(p), d.Size(id))
		}
		if err := VerifyPayload(p, spec.Seed, id); err != nil {
			t.Fatalf("verify failed: %v", err)
		}
	}
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
	for _, size := range []int{0, 5, PayloadHeaderSize, 8<<10 + 3} {
		p := make([]byte, size)
		FillPayload(p, seed, id)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := VerifyPayload(p, seed, id); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("size %d: VerifyPayload allocates %.1f times per call", size, allocs)
		}
	}
}

// TestVerifyPayloadReportsFirstCorruptByte flips each byte of a payload in
// turn, header and tail included, and checks the error names its offset.
func TestVerifyPayloadReportsFirstCorruptByte(t *testing.T) {
	const seed, id = 5, SampleID(9)
	p := make([]byte, 45) // header, four words, a 1-byte tail
	FillPayload(p, seed, id)
	for off := range p {
		p[off] ^= 0x80
		err := VerifyPayload(p, seed, id)
		p[off] ^= 0x80
		if err == nil {
			t.Fatalf("flip at offset %d not detected", off)
		}
		if off >= 4 && !strings.HasSuffix(err.Error(), fmt.Sprintf("at offset %d", off)) {
			t.Fatalf("flip at offset %d: %v", off, err)
		}
	}
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
// the payload format: header, then the xorshift words as a little-endian
// byte stream cut off at the buffer's end — for every length around the
// header and every tail length.
func TestFillPayloadMatchesByteStream(t *testing.T) {
	const seed, id = 11, SampleID(5)
	for size := 0; size < 100; size++ {
		var stream []byte
		stream = binary.LittleEndian.AppendUint32(stream, uint32(id))
		stream = binary.LittleEndian.AppendUint64(stream, uint64(size))
		for state := stats.DeriveSeed(seed, uint64(id)+1); len(stream) < size; {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			stream = binary.LittleEndian.AppendUint64(stream, state)
		}
		got := make([]byte, size)
		FillPayload(got, seed, id)
		if !bytes.Equal(got, stream[:size]) {
			t.Fatalf("size %d: payload %x, want %x", size, got, stream[:size])
		}
	}
}

func TestCatalogSpecs(t *testing.T) {
	for _, scale := range []Scale{ScaleTiny, ScaleSmall, ScaleMedium} {
		for _, spec := range []Spec{ImageNet1K(scale, 1), ImageNet22K(scale, 1)} {
			if err := spec.Validate(); err != nil {
				t.Errorf("catalog spec %s@%s invalid: %v", spec.Name, scale, err)
			}
		}
	}
	// Scaling must strictly reduce the sample count.
	if ImageNet1K(ScaleTiny, 1).NumSamples >= ImageNet1K(ScaleSmall, 1).NumSamples {
		t.Error("tiny scale not smaller than small scale")
	}
	if ImageNet1K(ScaleFull, 1).NumSamples != 1281167 {
		t.Errorf("full-scale ImageNet-1K count = %d, want 1281167", ImageNet1K(ScaleFull, 1).NumSamples)
	}
	if ImageNet22K(ScaleFull, 1).NumSamples != 14197103 {
		t.Errorf("full-scale ImageNet-22K count = %d", ImageNet22K(ScaleFull, 1).NumSamples)
	}
}

func TestParseScale(t *testing.T) {
	for _, name := range []string{"tiny", "small", "medium", "full"} {
		s, err := ParseScale(name)
		if err != nil {
			t.Fatalf("ParseScale(%q): %v", name, err)
		}
		if s.String() != name {
			t.Fatalf("round trip %q -> %q", name, s.String())
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("invalid scale accepted")
	}
}
