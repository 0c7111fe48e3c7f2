// Package dataset models training datasets: collections of variable-size
// samples identified by dense integer IDs.
//
// The paper evaluates on ImageNet-1K (1.28 M images, 135 GB) and
// ImageNet-22K (14.2 M images, 1.3 TB, "most with an image size of between
// 10 KB and 50 KB"). Real pixels are irrelevant to I/O behaviour — only the
// per-sample byte sizes and the access order matter — so this package
// synthesises datasets with matching count and size distributions, plus
// deterministic payload generation for the online runtime (which moves and
// decodes actual bytes).
package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/stats"
)

// SampleID is the dense index of a sample within its dataset.
type SampleID int32

// Dataset is an immutable collection of sample sizes. It is shared
// read-only across goroutines in the online runtime.
type Dataset struct {
	name   string
	sizes  []int64 // bytes per sample, indexed by SampleID
	total  int64
	labels []int32 // class label per sample (used by the accuracy model)
	seed   uint64
}

// Spec describes a synthetic dataset to generate.
type Spec struct {
	Name       string
	NumSamples int
	// MeanSize and SigmaLog parameterise the log-normal size body.
	MeanSize int64   // target mean sample size in bytes
	SigmaLog float64 // sigma of the underlying normal (spread); 0 => constant sizes
	MinSize  int64   // clamp floor (e.g. 10 KB for ImageNet-22K)
	MaxSize  int64   // clamp ceiling (0 = unbounded)
	Classes  int     // number of class labels (>=1)
	Seed     uint64
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.NumSamples <= 0 {
		return fmt.Errorf("dataset: %q: NumSamples %d <= 0", s.Name, s.NumSamples)
	}
	if s.MeanSize <= 0 {
		return fmt.Errorf("dataset: %q: MeanSize %d <= 0", s.Name, s.MeanSize)
	}
	if s.SigmaLog < 0 {
		return fmt.Errorf("dataset: %q: SigmaLog %g < 0", s.Name, s.SigmaLog)
	}
	if s.MinSize < 0 || (s.MaxSize != 0 && s.MaxSize < s.MinSize) {
		return fmt.Errorf("dataset: %q: invalid size clamp [%d, %d]", s.Name, s.MinSize, s.MaxSize)
	}
	if s.Classes < 1 {
		return fmt.Errorf("dataset: %q: Classes %d < 1", s.Name, s.Classes)
	}
	return nil
}

// Generate synthesises the dataset described by the spec.
func Generate(spec Spec) (*Dataset, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := stats.NewRNG(stats.DeriveSeed(spec.Seed, 0x5a5a))
	d := &Dataset{
		name:   spec.Name,
		sizes:  make([]int64, spec.NumSamples),
		labels: make([]int32, spec.NumSamples),
		seed:   spec.Seed,
	}
	// For a log-normal with parameters (mu, sigma), mean = exp(mu+sigma^2/2).
	// Choose mu so the configured MeanSize is the distribution mean.
	mu := math.Log(float64(spec.MeanSize)) - spec.SigmaLog*spec.SigmaLog/2
	for i := range d.sizes {
		var sz int64
		if spec.SigmaLog == 0 {
			sz = spec.MeanSize
		} else {
			sz = int64(r.LogNormal(mu, spec.SigmaLog))
		}
		if sz < spec.MinSize {
			sz = spec.MinSize
		}
		if spec.MaxSize > 0 && sz > spec.MaxSize {
			sz = spec.MaxSize
		}
		if sz < 1 {
			sz = 1
		}
		d.sizes[i] = sz
		d.total += sz
		d.labels[i] = int32(r.Intn(spec.Classes))
	}
	return d, nil
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.name }

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.sizes) }

// Size returns the byte size of sample id.
func (d *Dataset) Size(id SampleID) int64 { return d.sizes[id] }

// Label returns the class label of sample id.
func (d *Dataset) Label(id SampleID) int32 { return d.labels[id] }

// TotalBytes returns the sum of all sample sizes (S in the paper's model).
func (d *Dataset) TotalBytes() int64 { return d.total }

// MeanSize returns the average sample size in bytes.
func (d *Dataset) MeanSize() int64 {
	if len(d.sizes) == 0 {
		return 0
	}
	return d.total / int64(len(d.sizes))
}

// Payload deterministically regenerates the raw bytes of a sample for the
// online runtime. The content is a function of (dataset seed, sample id)
// only, so every node's PFS store serves identical bytes — which lets
// integration tests verify end-to-end data integrity after cache hops.
//
// The first 12 bytes are a header (sample id + length) that the preproc
// decoder validates; the rest is a cheap xorshift stream.
func (d *Dataset) Payload(id SampleID) []byte {
	size := d.sizes[id]
	buf := make([]byte, size)
	FillPayload(buf, d.seed, id)
	return buf
}

// PayloadHeaderSize is the number of leading bytes carrying sample
// metadata inside a payload. Samples smaller than this carry a truncated
// header.
const PayloadHeaderSize = 12

// FillPayload writes the deterministic payload of sample id into buf
// (whose length defines the sample size written).
func FillPayload(buf []byte, seed uint64, id SampleID) {
	var hdr [PayloadHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(id))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(buf)))
	n := copy(buf, hdr[:])
	state := stats.DeriveSeed(seed, uint64(id)+1)
	i := n
	for ; i+8 <= len(buf); i += 8 {
		state = xorshift(state)
		binary.LittleEndian.PutUint64(buf[i:], state)
	}
	if i < len(buf) {
		// The tail gets the leading bytes of one more word.
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], xorshift(state))
		copy(buf[i:], w[:])
	}
}

func xorshift(state uint64) uint64 {
	state ^= state << 13
	state ^= state >> 7
	state ^= state << 17
	return state
}

// VerifyPayload checks that buf is the payload of sample id under seed:
// every byte, header and body, against the stream FillPayload writes,
// regenerated a word at a time with no buffer. It returns a descriptive
// error on mismatch.
//
//lint:hotpath one check per value a kv read returns; a scratch copy of the payload was most of the reader's garbage
func VerifyPayload(buf []byte, seed uint64, id SampleID) error {
	if len(buf) >= 4 {
		gotID := binary.LittleEndian.Uint32(buf[0:4])
		if gotID != uint32(id) {
			//lint:allow hotpath cold mismatch path, formatted once per corrupt payload
			return fmt.Errorf("dataset: payload header id %d, want %d", gotID, id)
		}
	}
	if off := payloadMismatch(buf, seed, id); off >= 0 {
		//lint:allow hotpath cold mismatch path, formatted once per corrupt payload
		return fmt.Errorf("dataset: payload of sample %d corrupt at offset %d", id, off)
	}
	return nil
}

// payloadMismatch returns the offset of the first byte of buf that
// differs from FillPayload's output for a buffer of its length, or -1.
func payloadMismatch(buf []byte, seed uint64, id SampleID) int {
	var hdr [PayloadHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(id))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(buf)))
	i := 0
	for ; i < len(buf) && i < len(hdr); i++ {
		if buf[i] != hdr[i] {
			return i
		}
	}
	state := stats.DeriveSeed(seed, uint64(id)+1)
	for ; i+8 <= len(buf); i += 8 {
		state = xorshift(state)
		if diff := binary.LittleEndian.Uint64(buf[i:]) ^ state; diff != 0 {
			return i + bits.TrailingZeros64(diff)/8 // little-endian: low byte first
		}
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], xorshift(state))
	for j := 0; i+j < len(buf); j++ {
		if buf[i+j] != w[j] {
			return i + j
		}
	}
	return -1
}
