package allreduce

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// runRound executes one collective across all ranks and returns each
// rank's resulting slice.
func runRound(t *testing.T, r *Ring, grads [][]float64, average bool) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(grads))
	for rank := range grads {
		rank := rank
		wg.Add(1)
		go func() {
			defer wg.Done()
			if average {
				errs[rank] = r.Average(rank, grads[rank])
			} else {
				errs[rank] = r.Reduce(rank, grads[rank])
			}
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Fatal("world 0 accepted")
	}
	r, err := NewRing(4)
	if err != nil || r.world != 4 {
		t.Fatalf("NewRing: %v", err)
	}
}

func TestReduceSumsAcrossRanks(t *testing.T) {
	const world, n = 4, 10
	r, err := NewRing(world)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][]float64, world)
	want := make([]float64, n)
	for rank := range grads {
		grads[rank] = make([]float64, n)
		for i := range grads[rank] {
			grads[rank][i] = float64(rank*100 + i)
			want[i] += grads[rank][i]
		}
	}
	runRound(t, r, grads, false)
	for rank := range grads {
		for i := range want {
			if math.Abs(grads[rank][i]-want[i]) > 1e-9 {
				t.Fatalf("rank %d element %d = %g, want %g", rank, i, grads[rank][i], want[i])
			}
		}
	}
}

func TestAverageDividesByWorld(t *testing.T) {
	const world = 3
	r, _ := NewRing(world)
	grads := [][]float64{{3, 6}, {3, 6}, {3, 6}}
	runRound(t, r, grads, true)
	for rank := range grads {
		if grads[rank][0] != 3 || grads[rank][1] != 6 {
			t.Fatalf("rank %d average = %v, want [3 6]", rank, grads[rank])
		}
	}
}

func TestSingleRankNoop(t *testing.T) {
	r, _ := NewRing(1)
	g := []float64{1, 2, 3}
	if err := r.Reduce(0, g); err != nil {
		t.Fatal(err)
	}
	if g[0] != 1 || g[2] != 3 {
		t.Fatal("single-rank reduce modified data")
	}
}

func TestRankValidation(t *testing.T) {
	r, _ := NewRing(2)
	if err := r.Reduce(2, []float64{1}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if err := r.Reduce(-1, []float64{1}); err == nil {
		t.Fatal("negative rank accepted")
	}
}

func TestRepeatedRounds(t *testing.T) {
	// The group must be reusable: 20 consecutive collectives with
	// changing data.
	const world, n = 3, 7
	r, _ := NewRing(world)
	for round := 0; round < 20; round++ {
		grads := make([][]float64, world)
		want := make([]float64, n)
		for rank := range grads {
			grads[rank] = make([]float64, n)
			for i := range grads[rank] {
				grads[rank][i] = float64(round + rank + i)
				want[i] += grads[rank][i]
			}
		}
		runRound(t, r, grads, false)
		for rank := range grads {
			for i := range want {
				if grads[rank][i] != want[i] {
					t.Fatalf("round %d rank %d: %v, want %v", round, rank, grads[rank], want)
				}
			}
		}
	}
}

func TestUnevenChunks(t *testing.T) {
	// Gradient length not divisible by world: chunking must still cover
	// every element exactly once.
	for _, n := range []int{1, 2, 5, 13} {
		for _, world := range []int{2, 3, 4, 7} {
			r, _ := NewRing(world)
			grads := make([][]float64, world)
			want := make([]float64, n)
			for rank := range grads {
				grads[rank] = make([]float64, n)
				for i := range grads[rank] {
					grads[rank][i] = float64((rank + 1) * (i + 2))
					want[i] += grads[rank][i]
				}
			}
			runRound(t, r, grads, false)
			for rank := range grads {
				for i := range want {
					if math.Abs(grads[rank][i]-want[i]) > 1e-9 {
						t.Fatalf("n=%d world=%d rank %d element %d: %g, want %g",
							n, world, rank, i, grads[rank][i], want[i])
					}
				}
			}
		}
	}
}

func TestReducePropertyRandom(t *testing.T) {
	f := func(seed uint64, worldRaw, nRaw uint8) bool {
		world := int(worldRaw%6) + 1
		n := int(nRaw%32) + 1
		r, err := NewRing(world)
		if err != nil {
			return false
		}
		rng := stats.NewRNG(seed)
		grads := make([][]float64, world)
		want := make([]float64, n)
		for rank := range grads {
			grads[rank] = make([]float64, n)
			for i := range grads[rank] {
				grads[rank][i] = rng.Float64()*200 - 100
				want[i] += grads[rank][i]
			}
		}
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for rank := range grads {
			rank := rank
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := r.Reduce(rank, grads[rank]); err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if !ok {
			return false
		}
		for rank := range grads {
			for i := range want {
				if math.Abs(grads[rank][i]-want[i]) > 1e-6*(math.Abs(want[i])+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// pinnedRingFold is the FNV-1a fold of every rank's Average output over
// pinnedInputs, worlds 1-9 and lengths 1, 3, 7, 64, 65, 130, as computed
// by the two-phase channel ring allreduce this group replaced. It pins
// the ring's addition order bit for bit.
const pinnedRingFold = 0xc324b8d96e850c1f

// pinnedInputs fills world gradients of length n from a seeded stream,
// with magnitudes spread over 2^-20..2^20 so that any change of
// addition order changes low bits.
func pinnedInputs(world, n int) [][]float64 {
	rng := stats.NewRNG(uint64(world)<<32 | uint64(n))
	grads := make([][]float64, world)
	for rank := range grads {
		grads[rank] = make([]float64, n)
		for i := range grads[rank] {
			grads[rank][i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(41)-20)
		}
	}
	return grads
}

func TestAverageMatchesPinnedRingBits(t *testing.T) {
	h := uint64(14695981039346656037)
	for world := 1; world <= 9; world++ {
		r, err := NewRing(world)
		if err != nil {
			t.Fatal(err)
		}
		// One group per world, reused across lengths (the uneven
		// splits 1, 3, 7, 65 and 130 included).
		for _, n := range []int{1, 3, 7, 64, 65, 130} {
			grads := pinnedInputs(world, n)
			runRound(t, r, grads, true)
			for _, g := range grads {
				for _, v := range g {
					b := math.Float64bits(v)
					for k := 0; k < 8; k++ {
						h ^= b & 0xff
						h *= 1099511628211
						b >>= 8
					}
				}
			}
		}
	}
	if h != pinnedRingFold {
		t.Fatalf("averaged gradients fold to %#x, the ring's to %#x", h, uint64(pinnedRingFold))
	}
}

// TestMismatchedLengthsFailEveryRank: a round whose ranks disagree on the
// gradient length returns an error to every rank (none deadlocks, none
// has its slice touched), and the group's next round works.
func TestMismatchedLengthsFailEveryRank(t *testing.T) {
	const world = 3
	r, _ := NewRing(world)
	grads := [][]float64{{1, 2}, {1, 2, 3}, {1, 2}}
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := range grads {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = r.Average(rank, grads[rank])
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "mismatched") {
			t.Errorf("rank %d: err %v, want a length mismatch", rank, err)
		}
		if grads[rank][0] != 1 || grads[rank][1] != 2 {
			t.Errorf("rank %d: failed round wrote %v", rank, grads[rank])
		}
	}
	grads = [][]float64{{1, 2}, {3, 4}, {5, 6}}
	runRound(t, r, grads, false)
	for rank := range grads {
		if grads[rank][0] != 9 || grads[rank][1] != 12 {
			t.Fatalf("rank %d after a failed round: %v, want [9 12]", rank, grads[rank])
		}
	}
}

// TestRoundsReuseStateConcurrently: ranks run many rounds back to back
// with no outside synchronization and a length that changes every
// round, so a fast rank deposits round k+1 while slow ones still copy
// round k out. Every rank must see exactly its round's sum, and the
// per-round action must run once per round, in order, with every rank's
// deposit in.
func TestRoundsReuseStateConcurrently(t *testing.T) {
	const world, rounds = 5, 200
	var seen []int
	r, err := NewGroup(world, func(round int) { seen = append(seen, round) })
	if err != nil {
		t.Fatal(err)
	}
	value := func(round, rank, i int) float64 { return float64(round*1000 + rank*10 + i) }
	length := func(round int) int { return 1 + round%9 }
	errs := make([]error, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				g := make([]float64, length(round))
				for i := range g {
					g[i] = value(round, rank, i)
				}
				if err := r.Reduce(rank, g); err != nil {
					errs[rank] = err
					return
				}
				for i, v := range g {
					want := 0.0
					for k := 0; k < world; k++ {
						want += value(round, k, i)
					}
					if v != want {
						t.Errorf("round %d rank %d element %d: %g, want %g", round, rank, i, v, want)
						return
					}
				}
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if len(seen) != rounds {
		t.Fatalf("per-round action ran %d times in %d rounds", len(seen), rounds)
	}
	for i, round := range seen {
		if round != i {
			t.Fatalf("per-round action %d saw round %d", i, round)
		}
	}
}

// TestGroupRendezvousWithoutGradients: zero-length gradients still make
// a full rendezvous (the action runs once per round, after every rank
// has arrived and before any returns), and a world of one runs its
// action without anyone to wait for.
func TestGroupRendezvousWithoutGradients(t *testing.T) {
	for _, world := range []int{1, 4} {
		var arrived, rounds int
		var mu sync.Mutex
		r, _ := NewGroup(world, func(round int) {
			mu.Lock()
			defer mu.Unlock()
			if arrived != world*(round+1) {
				t.Errorf("world %d round %d: action ran with %d of %d arrivals", world, round, arrived, world*(round+1))
			}
			rounds++
		})
		var wg sync.WaitGroup
		for rank := 0; rank < world; rank++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					mu.Lock()
					arrived++
					mu.Unlock()
					if err := r.Average(rank, nil); err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					done := rounds
					mu.Unlock()
					if done != i+1 {
						t.Errorf("world %d rank %d returned from round %d after %d actions", world, rank, i, done)
					}
				}
			}(rank)
		}
		wg.Wait()
		if rounds != 10 {
			t.Fatalf("world %d: action ran %d times in 10 rounds", world, rounds)
		}
	}
}
