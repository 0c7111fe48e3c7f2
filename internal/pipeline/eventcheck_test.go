package pipeline

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// eventPoolTimes approximates processor sharing with a round-robin
// server: the whole pool serves one active queue at a time for one
// quantum of its work, rotating fairly. As the quantum shrinks it
// converges to the analytic water-filling solution used by
// sharedPoolTimes — an independent check of the shared-pool model.
func eventPoolTimes(works []float64, quantum float64) []float64 {
	remaining := append([]float64(nil), works...)
	done := make([]float64, len(works))
	now := 0.0
	for served := true; served; {
		served = false
		for i := range remaining {
			if remaining[i] <= 1e-12 {
				continue
			}
			q := math.Min(quantum, remaining[i])
			remaining[i] -= q
			now += q
			served = true
			if remaining[i] <= 1e-12 {
				done[i] = now
			}
		}
	}
	return done
}

func TestSharedPoolMatchesEventSimulation(t *testing.T) {
	cases := [][]float64{
		{1, 1, 1, 1},
		{1, 4},
		{0.5, 0.5, 3},
		{2},
		{0, 1, 2},
	}
	for _, works := range cases {
		analytic := make([]float64, len(works))
		sharedPoolTimes(works, analytic, make([]poolQueue, len(works)))
		event := eventPoolTimes(works, 1e-4)
		for i := range works {
			if math.Abs(analytic[i]-event[i]) > 1e-2*(analytic[i]+1e-9)+1e-3 {
				t.Errorf("works %v queue %d: analytic %.4f vs event %.4f",
					works, i, analytic[i], event[i])
			}
		}
	}
}

func TestSharedPoolPropertyVsEvents(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := r.Intn(5) + 1
		works := make([]float64, n)
		for i := range works {
			works[i] = r.Float64() * 2
		}
		analytic := make([]float64, n)
		sharedPoolTimes(works, analytic, make([]poolQueue, n))
		event := eventPoolTimes(works, 5e-4)
		for i := range works {
			if math.Abs(analytic[i]-event[i]) > 0.02*(analytic[i]+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedPoolConservation: total served pool-seconds equal total work,
// and the last completion equals the sum (a single pool serves one
// pool-second per second).
func TestSharedPoolConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n := r.Intn(8) + 1
		works := make([]float64, n)
		sum := 0.0
		for i := range works {
			works[i] = r.Float64() * 3
			sum += works[i]
		}
		out := make([]float64, n)
		sharedPoolTimes(works, out, make([]poolQueue, n))
		last := 0.0
		for i, v := range out {
			if v > last {
				last = v
			}
			// No queue finishes before its own work could complete even
			// alone, nor after the total.
			if v+1e-9 < works[i] || v > sum+1e-9 {
				return false
			}
		}
		return math.Abs(last-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
