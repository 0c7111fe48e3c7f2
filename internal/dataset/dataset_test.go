package dataset

import (
	"math"
	"testing"
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
