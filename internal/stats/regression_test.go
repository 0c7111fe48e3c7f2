package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitLinearExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 1 + 2x
	f, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-9 || math.Abs(f.Intercept-1) > 1e-9 {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", f)
	}
	if math.Abs(f.R2-1) > 1e-9 {
		t.Fatalf("R2 = %g, want 1", f.R2)
	}
	if got := f.Eval(10); math.Abs(got-21) > 1e-9 {
		t.Fatalf("Eval(10) = %g, want 21", got)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestFitLinearNoisy(t *testing.T) {
	r := NewRNG(99)
	var x, y []float64
	for i := 0; i < 500; i++ {
		xi := float64(i) / 10
		x = append(x, xi)
		y = append(y, 4+3*xi+r.NormFloat64()*0.1)
	}
	f, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-3) > 0.02 || math.Abs(f.Intercept-4) > 0.1 {
		t.Fatalf("noisy fit = %+v, want slope~3 intercept~4", f)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R2 = %g, want > 0.99", f.R2)
	}
}

func TestPiecewiseLinearEval(t *testing.T) {
	p, err := NewPiecewiseLinear([]float64{0, 1, 2}, []float64{0, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{-1, 0}, // flat extrapolation left
		{0, 0},
		{0.5, 5}, // interpolation
		{1, 10},
		{1.5, 10},
		{2, 10},
		{5, 10}, // flat extrapolation right
	}
	for _, c := range cases {
		if got := p.Eval(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Eval(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestPiecewiseLinearValidation(t *testing.T) {
	if _, err := NewPiecewiseLinear([]float64{0}, []float64{0}); err == nil {
		t.Error("single knot accepted")
	}
	if _, err := NewPiecewiseLinear([]float64{0, 0}, []float64{0, 1}); err == nil {
		t.Error("duplicate knot accepted")
	}
	if _, err := NewPiecewiseLinear([]float64{0, 1}, []float64{0}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFitPiecewiseLinearRecovesShape(t *testing.T) {
	// Saturating curve: rises to x=6, then flat — the Observation 3 shape.
	truth := func(x float64) float64 {
		if x < 6 {
			return x * 100
		}
		return 600
	}
	var xs, ys []float64
	for x := 1.0; x <= 16; x++ {
		for rep := 0; rep < 3; rep++ {
			xs = append(xs, x)
			ys = append(ys, truth(x))
		}
	}
	p, err := FitPiecewiseLinear(xs, ys, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The fitted curve should rise in the early region and be flat late.
	if p.Eval(2) >= p.Eval(5) {
		t.Errorf("fitted curve not rising: f(2)=%g f(5)=%g", p.Eval(2), p.Eval(5))
	}
	if math.Abs(p.Eval(10)-p.Eval(15)) > 30 {
		t.Errorf("fitted curve not flat in saturated region: f(10)=%g f(15)=%g", p.Eval(10), p.Eval(15))
	}
	bestX := 1.0 // the unit-step x in [1, 16] where the fit peaks
	for x := 2.0; x <= 16; x++ {
		if p.Eval(x) > p.Eval(bestX) {
			bestX = x
		}
	}
	if bestX < 5 {
		t.Errorf("fitted curve peaks at %g, want >= 5 (peak region)", bestX)
	}
}

func TestFitPiecewiseLinearDuplicatesAveraged(t *testing.T) {
	xs := []float64{1, 1, 2, 2}
	ys := []float64{0, 10, 20, 40}
	p, err := FitPiecewiseLinear(xs, ys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Eval(1); math.Abs(got-5) > 1e-9 {
		t.Errorf("Eval(1) = %g, want 5 (average of duplicates)", got)
	}
	if got := p.Eval(2); math.Abs(got-30) > 1e-9 {
		t.Errorf("Eval(2) = %g, want 30", got)
	}
}

func TestPiecewisePropertyBounded(t *testing.T) {
	// Evaluations must stay within [min(ys), max(ys)] — linear
	// interpolation cannot overshoot its knots.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := r.Intn(8) + 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		x := r.Float64()
		minY, maxY := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			x += r.Float64() + 0.01
			xs[i] = x
			ys[i] = r.Float64() * 100
			if ys[i] < minY {
				minY = ys[i]
			}
			if ys[i] > maxY {
				maxY = ys[i]
			}
		}
		p, err := NewPiecewiseLinear(xs, ys)
		if err != nil {
			return false
		}
		for i := 0; i < 100; i++ {
			v := p.Eval(r.Float64()*20 - 5)
			if v < minY-1e-9 || v > maxY+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
