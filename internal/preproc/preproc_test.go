package preproc

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// referenceDecode and referenceAugment are the scalar loops the kernel
// replaced, kept verbatim as the oracle: one divide and one checksum step
// per byte, then a flip pass and a jitter pass over the tensor.
func referenceDecode(payload []byte, want dataset.SampleID) (*Tensor, error) {
	if len(payload) < dataset.PayloadHeaderSize {
		return nil, fmt.Errorf("preproc: payload of %d bytes shorter than header", len(payload))
	}
	id := dataset.SampleID(binary.LittleEndian.Uint32(payload[0:4]))
	if id != want {
		return nil, fmt.Errorf("preproc: payload header id %d, want %d", id, want)
	}
	length := binary.LittleEndian.Uint64(payload[4:12])
	if length != uint64(len(payload)) {
		return nil, fmt.Errorf("preproc: payload header length %d, actual %d", length, len(payload))
	}
	body := payload[dataset.PayloadHeaderSize:]
	t := &Tensor{ID: id, Data: make([]float32, len(body))}
	var sum uint64
	for i, b := range body {
		v := float32(b)/255*2 - 1
		v = v * (1 - v*v/3)
		t.Data[i] = v
		sum = sum*31 + uint64(b)
	}
	t.Checksum = sum
	return t, nil
}

func referenceAugment(t *Tensor, seed uint64) {
	if len(t.Data) == 0 {
		return
	}
	if seed&1 == 1 { // flip
		for i, j := 0, len(t.Data)-1; i < j; i, j = i+1, j-1 {
			t.Data[i], t.Data[j] = t.Data[j], t.Data[i]
		}
	}
	jitter := float32((seed>>1)%100)/1000 - 0.05
	for i := range t.Data {
		t.Data[i] += jitter
	}
}

// sameTensor compares two tensors bit for bit.
func sameTensor(got, want *Tensor) error {
	if got.ID != want.ID || got.Checksum != want.Checksum || len(got.Data) != len(want.Data) {
		return fmt.Errorf("id %d checksum %#x len %d, want id %d checksum %#x len %d",
			got.ID, got.Checksum, len(got.Data), want.ID, want.Checksum, len(want.Data))
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			return fmt.Errorf("element %d = %g (%#x), want %g (%#x)", i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
	return nil
}

// decodePaths are the decode paths this CPU runs: the portable kernel,
// and the AVX-512 one-pass loop when the package selected it at init.
var decodePaths = map[bool]string{false: "portable"}

func init() {
	if useAVX512 {
		decodePaths[true] = "simd"
	}
}

// checkAgainstReference decodes and augments payload three ways — the
// fused pass the pool runs, Decode then Augment, and the scalar oracle —
// on every decode path, and requires identical tensors, or the oracle's
// error text from both kernels.
func checkAgainstReference(t *testing.T, payload []byte, id dataset.SampleID, seed uint64) {
	t.Helper()
	defer func(selected bool) { useAVX512 = selected }(useAVX512)
	for simd, path := range decodePaths {
		useAVX512 = simd
		want, wantErr := referenceDecode(payload, id)
		fused, fusedErr := decodeAugment(payload, id, seed)
		split, splitErr := Decode(payload, id)
		if wantErr != nil {
			for name, err := range map[string]error{"decodeAugment": fusedErr, "Decode": splitErr} {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: %s error = %v, want %v", path, name, err, wantErr)
				}
			}
			continue
		}
		if fusedErr != nil || splitErr != nil {
			t.Fatalf("%s: valid payload rejected: decodeAugment %v, Decode %v", path, fusedErr, splitErr)
		}
		referenceAugment(want, seed)
		Augment(split, seed)
		if err := sameTensor(fused, want); err != nil {
			t.Fatalf("%s: fused pass: %v", path, err)
		}
		if err := sameTensor(split, want); err != nil {
			t.Fatalf("%s: Decode then Augment: %v", path, err)
		}
		PutTensor(fused)
		PutTensor(split)
	}
}

// TestKernelMatchesReference covers bodies of 0-300 bytes — more than
// four 64-byte blocks, so every remainder mod 64 (whole words and bytes
// past the last block) over several block counts — both flip parities
// and several jitters; every table entry under every jitter, from bodies
// holding each byte value once, alone (256 bytes, whole blocks only) and
// followed by a 64-byte tail (320 bytes); and 8 KiB bodies of all 0x00
// and all 0xFF, the extremes of every checksum lane.
func TestKernelMatchesReference(t *testing.T) {
	for body := 0; body <= 300; body++ {
		for seed := uint64(0); seed <= 5; seed++ {
			id := dataset.SampleID(body)
			checkAgainstReference(t, testPayload(t, dataset.PayloadHeaderSize+body, id), id, seed)
		}
	}
	for _, size := range []int{256, 320} {
		payload := testPayload(t, dataset.PayloadHeaderSize+size, 2)
		body := payload[dataset.PayloadHeaderSize:]
		for i := range body {
			body[i] = byte(i * 167) // odd, so every 256 bytes hold each value once
		}
		for seed := uint64(0); seed < 200; seed++ { // 100 jitters, both flips
			checkAgainstReference(t, payload, 2, seed)
		}
	}
	for _, fill := range []byte{0x00, 0xff} {
		payload := testPayload(t, dataset.PayloadHeaderSize+8<<10, 1)
		body := payload[dataset.PayloadHeaderSize:]
		for i := range body {
			body[i] = fill
		}
		for seed := uint64(0); seed <= 1; seed++ {
			checkAgainstReference(t, payload, 1, seed)
		}
	}
}

// TestSIMDPathSelected catches a CPU probe that disagrees with
// /proc/cpuinfo: the AVX-512 loop must be selected exactly when the CPU
// lists avx512f, avx512bw and avx512vbmi. It logs the path that ran, so
// a machine without them shows up as portable-only.
func TestSIMDPathSelected(t *testing.T) {
	if goruntime.GOOS != "linux" || goruntime.GOARCH != "amd64" {
		t.Skip("reads /proc/cpuinfo; the AVX-512 loop is amd64 only")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := strings.Fields(string(info))
	listed := true
	for _, flag := range []string{"avx512f", "avx512bw", "avx512vbmi"} {
		listed = listed && slices.Contains(flags, flag)
	}
	if useAVX512 != listed {
		t.Fatalf("useAVX512 = %v, /proc/cpuinfo lists avx512f, avx512bw and avx512vbmi: %v", useAVX512, listed)
	}
	if useAVX512 {
		t.Log("decode paths: simd (AVX-512 VBMI) and portable")
	} else {
		t.Log("decode paths: portable only (no AVX-512 VBMI)")
	}
}

// headerErrorPayloads are the three ways a header can be wrong, each with
// the id to ask for.
func headerErrorPayloads(t testing.TB) map[string]struct {
	payload []byte
	id      dataset.SampleID
} {
	return map[string]struct {
		payload []byte
		id      dataset.SampleID
	}{
		"short":        {make([]byte, 4), 0},
		"wrong id":     {testPayload(t, 1024, 3), 4},
		"wrong length": {testPayload(t, 1024, 3)[:512], 3},
	}
}

func TestKernelHeaderErrorsMatchReference(t *testing.T) {
	for name, c := range headerErrorPayloads(t) {
		if _, err := referenceDecode(c.payload, c.id); err == nil {
			t.Fatalf("%s: oracle accepted the payload", name)
		}
		checkAgainstReference(t, c.payload, c.id, 1)
	}
}

func FuzzDecodeMatchesReference(f *testing.F) {
	for _, size := range []int{dataset.PayloadHeaderSize, 13, 64, 333} {
		f.Add(testPayload(f, size, 9), uint32(9), uint64(size))
	}
	for _, c := range headerErrorPayloads(f) {
		f.Add(c.payload, uint32(c.id), uint64(2)) // seed&2 keeps the bad header as it is
	}
	f.Fuzz(func(t *testing.T, payload []byte, id uint32, seed uint64) {
		// Make most inputs reach the kernel: a payload long enough to carry
		// a header gets a consistent one unless the fuzzer's own happens to
		// be valid already.
		if len(payload) >= dataset.PayloadHeaderSize && seed&2 == 0 {
			binary.LittleEndian.PutUint32(payload[0:4], id)
			binary.LittleEndian.PutUint64(payload[4:12], uint64(len(payload)))
		}
		checkAgainstReference(t, payload, dataset.SampleID(id), seed)
	})
}

// BenchmarkDecodeAugment is one worker's cost per sample on the rt
// benchmark's mean sample size, on each decode path this CPU runs.
func BenchmarkDecodeAugment(b *testing.B) {
	const size = 8 << 10
	payload := make([]byte, size)
	dataset.FillPayload(payload, 42, 7)
	defer func(selected bool) { useAVX512 = selected }(useAVX512)
	for _, simd := range []bool{true, false} {
		path, ok := decodePaths[simd]
		if !ok {
			continue
		}
		b.Run(path, func(b *testing.B) {
			useAVX512 = simd
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := decodeAugment(payload, 7, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				PutTensor(t)
			}
		})
	}
}

func testPayload(t testing.TB, size int, id dataset.SampleID) []byte {
	t.Helper()
	buf := make([]byte, size)
	dataset.FillPayload(buf, 42, id)
	return buf
}

func TestDecodeValid(t *testing.T) {
	p := testPayload(t, 4096, 7)
	tensor, err := Decode(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.ID != 7 {
		t.Fatalf("tensor id = %d, want 7", tensor.ID)
	}
	if len(tensor.Data) != 4096-dataset.PayloadHeaderSize {
		t.Fatalf("tensor has %d elements", len(tensor.Data))
	}
	if tensor.Checksum == 0 {
		t.Fatal("checksum not computed")
	}
	for i, v := range tensor.Data {
		if v < -1.5 || v > 1.5 || math.IsNaN(float64(v)) {
			t.Fatalf("element %d = %g outside normalized range", i, v)
		}
	}
}

func TestDecodeRejectsWrongID(t *testing.T) {
	p := testPayload(t, 1024, 3)
	if _, err := Decode(p, 4); err == nil {
		t.Fatal("wrong id accepted")
	}
}

func TestDecodeRejectsShortPayload(t *testing.T) {
	if _, err := Decode(make([]byte, 4), 0); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	p := testPayload(t, 1024, 3)
	if _, err := Decode(p[:512], 3); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestDecodeDeterministic(t *testing.T) {
	p := testPayload(t, 2048, 9)
	a, _ := Decode(p, 9)
	b, _ := Decode(p, 9)
	if a.Checksum != b.Checksum {
		t.Fatal("decode not deterministic")
	}
}

func TestAugmentFlipAndJitter(t *testing.T) {
	p := testPayload(t, 1024, 1)
	base, _ := Decode(p, 1)
	flipped, _ := Decode(p, 1)
	Augment(flipped, 1) // odd seed => flip, jitter = -0.05
	n := len(base.Data)
	for i := 0; i < n; i++ {
		want := base.Data[n-1-i] - 0.05
		if math.Abs(float64(flipped.Data[i]-want)) > 1e-6 {
			t.Fatalf("flip+jitter wrong at %d: got %g want %g", i, flipped.Data[i], want)
		}
	}
	unflipped, _ := Decode(p, 1)
	Augment(unflipped, 2) // even seed => no flip, jitter = (1%100)/1000-0.05 = -0.049
	for i := 0; i < n; i++ {
		want := base.Data[i] - 0.049
		if math.Abs(float64(unflipped.Data[i]-want)) > 1e-6 {
			t.Fatalf("jitter wrong at %d", i)
		}
	}
}

func TestAugmentEmptyTensor(t *testing.T) {
	Augment(&Tensor{}, 3) // must not panic
}

func TestModelValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ThroughputModel{
		{PerThreadMBps: 0, MemBWMBps: 1},
		{PerThreadMBps: 10, MemBWMBps: 5},
		{PerThreadMBps: 10, MemBWMBps: 100, ParallelLoss: 1},
		{PerThreadMBps: 10, MemBWMBps: 100, DegradePerThread: -0.1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %+v accepted", m)
		}
	}
}

func TestModelObservation3Shape(t *testing.T) {
	m := DefaultModel()
	// Rising region.
	for n := 1; n < 6; n++ {
		if m.Throughput(n+1) <= m.Throughput(n) {
			t.Fatalf("throughput not rising at %d threads", n)
		}
	}
	// Peak at 6 threads, as in Figure 6.
	if got := m.PeakThreads(16); got != 6 {
		t.Fatalf("PeakThreads = %d, want 6", got)
	}
	// Declining (or flat) beyond the peak.
	peak := m.Throughput(6)
	for n := 7; n <= 16; n++ {
		if m.Throughput(n) > peak {
			t.Fatalf("throughput at %d threads exceeds the peak", n)
		}
	}
	if m.Throughput(12) >= m.Throughput(7) {
		t.Fatal("no degradation visible in the oversubscribed region")
	}
	if m.Throughput(0) != 0 {
		t.Fatal("zero threads should give zero throughput")
	}
}

func TestModelTime(t *testing.T) {
	m := DefaultModel()
	bytes := int64(10e6)
	t6 := m.Time(bytes, 6)
	t1 := m.Time(bytes, 1)
	if t6 >= t1 {
		t.Fatalf("6 threads (%gs) not faster than 1 (%gs)", t6, t1)
	}
	want := float64(bytes) / (m.Throughput(6) * 1e6)
	if math.Abs(t6-want) > 1e-12 {
		t.Fatalf("Time = %g, want %g", t6, want)
	}
	if m.Time(bytes, 0) != 0 {
		t.Fatal("zero-thread time should be 0 (no work submitted)")
	}
}
