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
	"fmt"
	"math"

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

// Seed returns the generation seed, which also seeds every payload
// (Payload, FillPayload).
func (d *Dataset) Seed() uint64 { return d.seed }

// TotalBytes returns the sum of all sample sizes (S in the paper's model).
func (d *Dataset) TotalBytes() int64 { return d.total }

// MeanSize returns the average sample size in bytes.
func (d *Dataset) MeanSize() int64 {
	if len(d.sizes) == 0 {
		return 0
	}
	return d.total / int64(len(d.sizes))
}
