package threadmgr

import (
	"math"
	"testing"
)

// exhaustiveBest brute-forces the loading thread count in [1, lmax] that
// minimizes |T_L + T_P - T_train| for GPU j of the Decide m has begun —
// the optimum Algorithm 1's binary search approximates.
func exhaustiveBest(m *Manager, j, lmax, p int) (int, float64) {
	best, bestDiff := 1, math.Inf(1)
	for n := 1; n <= lmax; n++ {
		diff := math.Abs(m.timeDiff(j, n, p))
		if diff < bestDiff {
			best, bestDiff = n, diff
		}
	}
	return best, bestDiff
}

// TestSearchThreadsNearOptimal verifies DESIGN.md's ablation 2: the
// Algorithm 1 binary search lands within a small factor of the exhaustive
// optimum across a grid of workloads. The objective is not unimodal in
// general (tier splits change discretely with the thread count), so exact
// optimality is not guaranteed — the paper calls the result
// "near-optimal" — but the gap must stay small.
func TestSearchThreadsNearOptimal(t *testing.T) {
	m := testManager(t, 24)
	const lmax = 16
	cases := 0
	badCases := 0
	for _, misses := range []int{2, 6, 12, 20, 28, 32} {
		for _, train := range []float64{0.012, 0.030, 0.050, 0.070} {
			for _, p := range []int{4, 6, 8} {
				m.begin(fourOf(demand(misses)), train, 1)
				got := m.searchThreads(0, 2, lmax, p)
				gotDiff := math.Abs(m.timeDiff(0, got, p))
				_, bestDiff := exhaustiveBest(m, 0, lmax, p)
				cases++
				// Accept the heuristic when it converges below tau (both
				// are "good enough") or lands within 50% of the optimum
				// gap plus an absolute millisecond of slack.
				if gotDiff < m.cfg.Tau {
					continue
				}
				if gotDiff > bestDiff*1.5+0.001 {
					badCases++
					t.Logf("misses=%d train=%g p=%d: heuristic |diff|=%.4f vs optimum %.4f",
						misses, train, p, gotDiff, bestDiff)
				}
			}
		}
	}
	if badCases*10 > cases {
		t.Fatalf("heuristic far from optimum in %d/%d cases", badCases, cases)
	}
}

// TestSearchThreadsCheaperThanExhaustive sanity-checks the complexity
// argument of Section 4.3/4.4: the binary search evaluates the model
// O(log lmax) times where exhaustive search needs lmax evaluations. We
// count evaluations indirectly by instrumenting timeDiff through a
// wrapper (the manager itself is not hookable, so this asserts on the
// algorithmic bound rather than a counter: the search must terminate
// within the window bound even for adversarial τ).
func TestSearchThreadsTerminatesUnderTinyTau(t *testing.T) {
	pmPortfolio := testManager(t, 24)
	// τ = 1 nanosecond: never converges; the window/stall guards must
	// stop the search.
	tiny := *pmPortfolio
	tiny.cfg.Tau = 1e-9
	tiny.begin(fourOf(demand(16)), 0.05, 1)
	got := tiny.searchThreads(0, 1, 16, 6)
	if got < 1 || got > 16 {
		t.Fatalf("searchThreads out of range under tiny tau: %d", got)
	}
}
