package pipeline

import (
	"testing"

	"repro/internal/loader"
)

// TestCalibrationShape verifies the headline comparative shape of the
// paper's evaluation on a reduced-scale single-node run: end-to-end,
// Lobster > NoPFS > {DALI, PyTorch}, with hit ratios ordered
// Lobster > NoPFS > DALI > PyTorch (Section 5.5) and GPU utilization
// ordered the same way (Fig. 10).
func TestCalibrationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration run")
	}
	specs := []loader.Spec{
		loader.PyTorch(8, 24),
		loader.DALI(24),
		loader.NoPFS(8, 24),
		loader.Lobster(),
	}
	runs := map[string]*Metrics{}
	var ordered []*Metrics
	for _, spec := range specs {
		res, err := Run(testConfig(t, spec, 4))
		if err != nil {
			t.Fatal(err)
		}
		runs[spec.Name] = res.Metrics
		ordered = append(ordered, res.Metrics)
	}
	t.Logf("\n%s", Table(ordered))

	if runs["lobster"].TotalTime >= runs["nopfs"].TotalTime {
		t.Errorf("Lobster (%.2fs) not faster than NoPFS (%.2fs)",
			runs["lobster"].TotalTime, runs["nopfs"].TotalTime)
	}
	if runs["nopfs"].TotalTime >= runs["pytorch"].TotalTime {
		t.Errorf("NoPFS (%.2fs) not faster than PyTorch (%.2fs)",
			runs["nopfs"].TotalTime, runs["pytorch"].TotalTime)
	}
	if runs["lobster"].HitRatio() <= runs["nopfs"].HitRatio() {
		t.Errorf("Lobster hit ratio %.3f not above NoPFS %.3f",
			runs["lobster"].HitRatio(), runs["nopfs"].HitRatio())
	}
	if runs["nopfs"].HitRatio() <= runs["pytorch"].HitRatio() {
		t.Errorf("NoPFS hit ratio %.3f not above PyTorch %.3f",
			runs["nopfs"].HitRatio(), runs["pytorch"].HitRatio())
	}
	if runs["lobster"].GPUUtilization() <= runs["pytorch"].GPUUtilization() {
		t.Errorf("Lobster utilization %.3f not above PyTorch %.3f",
			runs["lobster"].GPUUtilization(), runs["pytorch"].GPUUtilization())
	}
	if runs["lobster"].ImbalanceFraction() >= runs["pytorch"].ImbalanceFraction() {
		t.Errorf("Lobster imbalance %.3f not below PyTorch %.3f",
			runs["lobster"].ImbalanceFraction(), runs["pytorch"].ImbalanceFraction())
	}
}
