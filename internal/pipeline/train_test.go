package pipeline

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/loader"
)

func TestAccuracyCurveShape(t *testing.T) {
	model, _ := cluster.ModelByName("resnet50")
	curve := AccuracyCurve(model, 60, 1)
	if len(curve) != 60 {
		t.Fatalf("curve length %d", len(curve))
	}
	// Monotone-ish rise: allow small noise wiggles but the trend must
	// climb and saturate near the target.
	if curve[0] > 0.4 {
		t.Fatalf("first epoch accuracy %g suspiciously high", curve[0])
	}
	last := curve[59]
	if math.Abs(last-model.TargetAccuracy) > 0.02 {
		t.Fatalf("final accuracy %g, want ~%g", last, model.TargetAccuracy)
	}
	// The paper's anchor: ~76% reached around epoch 40.
	reach := -1 // the first epoch (1-based) at 98.5% of the target
	for e, a := range curve {
		if a >= model.TargetAccuracy*0.985 {
			reach = e + 1
			break
		}
	}
	if reach < 30 || reach > 50 {
		t.Fatalf("reached target at epoch %d, want ~40", reach)
	}
	for _, a := range curve {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy %g out of range", a)
		}
	}
}

func TestAccuracyCurveSeedNoiseSmall(t *testing.T) {
	model, _ := cluster.ModelByName("resnet50")
	a := AccuracyCurve(model, 50, 1)
	b := AccuracyCurve(model, 50, 2)
	var maxDiff float64
	for e := range a {
		d := math.Abs(a[e] - b[e])
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff == 0 {
		t.Fatal("different seeds produced identical curves")
	}
	if maxDiff > 0.05 {
		t.Fatalf("seed noise %g too large for 'similar learning curves'", maxDiff)
	}
}

func TestAccuracyCurveEmpty(t *testing.T) {
	model, _ := cluster.ModelByName("resnet50")
	if AccuracyCurve(model, 0, 1) != nil {
		t.Fatal("zero epochs should give nil curve")
	}
}

func campaignConfig(t *testing.T, spec loader.Spec) Config {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{
		Name: "ts", NumSamples: 4000, MeanSize: 64 << 10, SigmaLog: 0.4, Classes: 5, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, _ := cluster.ModelByName("resnet50")
	return Config{
		Topology: cluster.ThetaGPULike(1, ds.TotalBytes()/3),
		Model:    model,
		Dataset:  ds,
		Epochs:   5,
		Seed:     11,
		Strategy: spec,
	}
}

func TestRunAttachesCurve(t *testing.T) {
	c, err := Train(campaignConfig(t, loader.Lobster()))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Curve) != 5 {
		t.Fatalf("curve length %d, want 5", len(c.Curve))
	}
	prevTime := 0.0
	for i, p := range c.Curve {
		if p.Epoch != i+1 {
			t.Fatalf("epoch numbering wrong at %d", i)
		}
		if p.Time <= prevTime {
			t.Fatalf("epoch end times not increasing at %d", i)
		}
		prevTime = p.Time
	}
	if c.FinalAccuracy() <= 0 {
		t.Fatal("final accuracy not positive")
	}
}

func TestCurveIndependentOfStrategy(t *testing.T) {
	// The Fig. 9 property: identical schedules => identical accuracy per
	// epoch, regardless of the loader; only wall time differs.
	slow, err := Train(campaignConfig(t, loader.PyTorch(8, 24)))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Train(campaignConfig(t, loader.Lobster()))
	if err != nil {
		t.Fatal(err)
	}
	for e := range slow.Curve {
		if slow.Curve[e].Accuracy != fast.Curve[e].Accuracy {
			t.Fatalf("epoch %d accuracy differs between strategies", e)
		}
	}
	if fast.Curve[len(fast.Curve)-1].Time >= slow.Curve[len(slow.Curve)-1].Time {
		t.Fatal("Lobster did not finish the same curve earlier in wall time")
	}
}

func TestTimeToAccuracy(t *testing.T) {
	c, err := Train(campaignConfig(t, loader.Lobster()))
	if err != nil {
		t.Fatal(err)
	}
	thr := c.Curve[2].Accuracy
	tt := c.TimeToAccuracy(thr)
	if tt <= 0 || tt > c.Curve[len(c.Curve)-1].Time {
		t.Fatalf("TimeToAccuracy = %g out of range", tt)
	}
	if c.TimeToAccuracy(2.0) != -1 {
		t.Fatal("impossible accuracy should return -1")
	}
}

func TestRunPropagatesPipelineErrors(t *testing.T) {
	cfg := campaignConfig(t, loader.Lobster())
	cfg.Epochs = 0
	if _, err := Train(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFinalAccuracyEmptyCampaign(t *testing.T) {
	c := &Campaign{}
	if c.FinalAccuracy() != 0 {
		t.Fatal("empty campaign should report zero accuracy")
	}
	if c.TimeToAccuracy(0.1) != -1 {
		t.Fatal("empty campaign should never reach any accuracy")
	}
}

func TestAccuracyCurveClamped(t *testing.T) {
	// A model with absurd anchors must still produce values in [0, 1].
	m := cluster.DNNModel{Name: "toy", IterTime: 0.01, BatchSize: 8,
		TargetAccuracy: 0.999, ConvergeEpochs: 1}
	for _, a := range AccuracyCurve(m, 30, 3) {
		if a < 0 || a > 1 {
			t.Fatalf("accuracy %g out of range", a)
		}
	}
}
