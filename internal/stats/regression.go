package stats

import (
	"fmt"
	"sort"
)

// LinearFit is a least-squares line y = Intercept + Slope*x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination on the fitted points
}

// FitLinear computes the ordinary least-squares fit of y on x. It returns
// an error if fewer than two distinct x values are provided.
func FitLinear(x, y []float64) (LinearFit, error) {
	if len(x) != len(y) {
		return LinearFit{}, fmt.Errorf("stats: FitLinear length mismatch (%d vs %d)", len(x), len(y))
	}
	n := float64(len(x))
	if len(x) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear needs at least 2 points, got %d", len(x))
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear needs at least 2 distinct x values")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	meanY := sy / n
	var ssTot, ssRes float64
	for i := range x {
		pred := intercept + slope*x[i]
		ssRes += (y[i] - pred) * (y[i] - pred)
		ssTot += (y[i] - meanY) * (y[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// Eval returns the fitted value at x.
func (f LinearFit) Eval(x float64) float64 { return f.Intercept + f.Slope*x }

// PiecewiseLinear is a continuous piecewise-linear function defined by knot
// points. Between knots it interpolates linearly; outside the knot range it
// extrapolates with the nearest segment's slope clamped to flat (the
// physically sensible behaviour for throughput curves).
//
// This is the model family the paper uses for the preprocessing stage
// ("a piece-wise linear regression model that takes the number of threads
// as input and predicts the execution time of processing one training
// sample", Section 4.1).
type PiecewiseLinear struct {
	xs []float64 // strictly increasing knot positions
	ys []float64
}

// NewPiecewiseLinear builds a piecewise-linear function from knot points.
// The xs must be strictly increasing.
func NewPiecewiseLinear(xs, ys []float64) (*PiecewiseLinear, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: piecewise knots length mismatch (%d vs %d)", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return nil, fmt.Errorf("stats: piecewise needs at least 2 knots, got %d", len(xs))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("stats: piecewise knots must be strictly increasing at index %d", i)
		}
	}
	p := &PiecewiseLinear{xs: make([]float64, len(xs)), ys: make([]float64, len(ys))}
	copy(p.xs, xs)
	copy(p.ys, ys)
	return p, nil
}

// FitPiecewiseLinear fits a piecewise-linear model with the given number of
// segments to (x, y) observations by placing knots at x quantiles and
// setting each knot's value to a local least-squares estimate. The input
// need not be sorted. It is deliberately simple — the planner refits it
// rarely (offline), and throughput-vs-threads curves are smooth.
func FitPiecewiseLinear(x, y []float64, segments int) (*PiecewiseLinear, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("stats: FitPiecewiseLinear length mismatch (%d vs %d)", len(x), len(y))
	}
	if segments < 1 {
		return nil, fmt.Errorf("stats: FitPiecewiseLinear needs at least 1 segment, got %d", segments)
	}
	if len(x) < 2 {
		return nil, fmt.Errorf("stats: FitPiecewiseLinear needs at least 2 points, got %d", len(x))
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(x))
	for i := range x {
		pts[i] = pt{x[i], y[i]}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].x < pts[j].x })

	// Deduplicate identical x by averaging y: knots must be strictly
	// increasing.
	uniq := pts[:0]
	for i := 0; i < len(pts); {
		j := i
		sum := 0.0
		for j < len(pts) && pts[j].x == pts[i].x {
			sum += pts[j].y
			j++
		}
		uniq = append(uniq, pt{pts[i].x, sum / float64(j-i)})
		i = j
	}
	pts = uniq
	if len(pts) < 2 {
		return nil, fmt.Errorf("stats: FitPiecewiseLinear needs at least 2 distinct x values")
	}
	if segments > len(pts)-1 {
		segments = len(pts) - 1
	}

	nk := segments + 1
	xs := make([]float64, nk)
	ys := make([]float64, nk)
	for k := 0; k < nk; k++ {
		// Knot at the quantile position of the sorted x values.
		idx := k * (len(pts) - 1) / segments
		xs[k] = pts[idx].x
		ys[k] = pts[idx].y
	}
	return NewPiecewiseLinear(xs, ys)
}

// Eval evaluates the function at x, extrapolating flat beyond the knots.
func (p *PiecewiseLinear) Eval(x float64) float64 {
	if x <= p.xs[0] {
		return p.ys[0]
	}
	last := len(p.xs) - 1
	if x >= p.xs[last] {
		return p.ys[last]
	}
	// Binary search for the segment containing x.
	lo, hi := 0, last
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.xs[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (x - p.xs[lo]) / (p.xs[hi] - p.xs[lo])
	return p.ys[lo]*(1-frac) + p.ys[hi]*frac
}
