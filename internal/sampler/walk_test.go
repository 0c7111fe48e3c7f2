package sampler

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// Walk fixture: 3 nodes x 2 GPUs x batch 3 over 80 samples is 4
// iterations per epoch; a run of 10 iterations ends half way through
// its third epoch.
const (
	walkNodes, walkGPUs, walkBatch = 3, 2, 3
	walkTotalIters                 = 10
)

func walkSchedule(t *testing.T) *Schedule {
	t.Helper()
	s, err := New(testDataset(t, 80), Config{WorldSize: walkNodes * walkGPUs, BatchSize: walkBatch, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.IterationsPerEpoch(); got != 4 {
		t.Fatalf("fixture has %d iterations per epoch, want 4", got)
	}
	return s
}

// interleaved is global iteration iter's window of node, built from the
// per-rank batches: sample k of every GPU before sample k+1 of any.
func interleaved(s *Schedule, node, iter int) []dataset.SampleID {
	ipe := s.IterationsPerEpoch()
	var out []dataset.SampleID
	for k := 0; k < walkBatch; k++ {
		for j := 0; j < walkGPUs; j++ {
			out = append(out, s.Batch(nil, iter/ipe, iter%ipe, node*walkGPUs+j)[k])
		}
	}
	return out
}

func TestNodeWindowInterleavesNodeBatch(t *testing.T) {
	s := walkSchedule(t)
	for epoch := 0; epoch < 3; epoch++ {
		for it := 0; it < s.IterationsPerEpoch(); it++ {
			for node := 0; node < walkNodes; node++ {
				win := s.NodeWindow(nil, epoch, it, node, walkGPUs)
				want := interleaved(s, node, epoch*s.IterationsPerEpoch()+it)
				if !slices.Equal(win, want) {
					t.Fatalf("epoch %d iteration %d node %d: window %v, want %v", epoch, it, node, win, want)
				}
				nb := s.NodeBatch(nil, epoch, it, node, walkGPUs)
				slices.Sort(win)
				slices.Sort(nb)
				if !slices.Equal(win, nb) {
					t.Fatalf("epoch %d iteration %d node %d: window is not a permutation of the node batch", epoch, it, node)
				}
			}
		}
	}
	for _, bad := range [][2]int{{4, 0}, {-1, 0}, {0, 3}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NodeWindow(iteration %d, node %d) did not panic", bad[0], bad[1])
				}
			}()
			s.NodeWindow(nil, 0, bad[0], bad[1], walkGPUs)
		}()
	}
}

// drain reads the walk forward up to limit, skipping every candidate, and
// returns the (iter, off, id) triples it saw.
func drain(w *Walk, limit int) []string {
	var got []string
	for {
		id, ok := w.Next(limit)
		if !ok {
			return got
		}
		iter, off := w.Pos()
		got = append(got, fmt.Sprint(iter, off, id))
		w.Skip()
	}
}

// expect is what drain must return over windows first to last, starting
// at offset off of the first.
func expect(s *Schedule, node, first, off, last int) []string {
	var want []string
	for iter := first; iter <= last; iter++ {
		for o, id := range interleaved(s, node, iter) {
			if iter > first || o >= off {
				want = append(want, fmt.Sprint(iter, o, id))
			}
		}
	}
	return want
}

// TestWalkCrossesEpochsUpToTheLastIteration walks node 1 in two legs: up
// to window 5, which crosses the first epoch boundary, then with a limit
// past the end of the run, which the walk caps at its last iteration.
func TestWalkCrossesEpochsUpToTheLastIteration(t *testing.T) {
	s := walkSchedule(t)
	w := s.NewWalk(1, walkGPUs, walkTotalIters)
	if got, want := drain(&w, 5), expect(s, 1, 0, 0, 5); !slices.Equal(got, want) {
		t.Fatalf("walk to window 5\n got %v\nwant %v", got, want)
	}
	if got, want := drain(&w, walkTotalIters+7), expect(s, 1, 6, 0, walkTotalIters-1); !slices.Equal(got, want) {
		t.Fatalf("walk past the end of the run\n got %v\nwant %v", got, want)
	}
	if _, ok := w.Next(walkTotalIters + 7); ok {
		t.Fatal("walk hands out a candidate past the run's last iteration")
	}
}

func TestWalkStartAtMovesOnlyForward(t *testing.T) {
	s := walkSchedule(t)
	w := s.NewWalk(2, walkGPUs, walkTotalIters)
	w.StartAt(5)
	w.Next(9)
	w.Skip()
	w.Skip()
	for _, it := range []int{0, 3, 5} {
		w.StartAt(it)
		if iter, off := w.Pos(); iter != 5 || off != 2 {
			t.Fatalf("StartAt(%d) moved the cursor from (5, 2) to (%d, %d)", it, iter, off)
		}
	}
	w.StartAt(7)
	if got, want := drain(&w, 7), expect(s, 2, 7, 0, 7); !slices.Equal(got, want) {
		t.Fatalf("after StartAt(7)\n got %v\nwant %v", got, want)
	}
}

// TestWalkBackMovesOnlyBackward rewinds within a window, which reuses
// it, and into a window of an earlier epoch, which must be built again.
func TestWalkBackMovesOnlyBackward(t *testing.T) {
	s := walkSchedule(t)
	w := s.NewWalk(0, walkGPUs, walkTotalIters)
	w.StartAt(6)
	for i := 0; i < 3; i++ {
		w.Next(9)
		w.Skip()
	}
	for _, pos := range [][2]int{{6, 3}, {6, 5}, {7, 0}} {
		w.Back(pos[0], pos[1])
		if iter, off := w.Pos(); iter != 6 || off != 3 {
			t.Fatalf("Back(%d, %d) moved the cursor from (6, 3) to (%d, %d)", pos[0], pos[1], iter, off)
		}
	}
	w.Back(6, 1)
	if id, _ := w.Next(9); id != interleaved(s, 0, 6)[1] {
		t.Fatalf("after Back(6, 1) the walk hands out %d, want offset 1 of window 6", id)
	}
	w.Skip()
	// The cursor sits in window 6, built; rewinding into window 2 must
	// not read window 6's ids at window 2's offsets.
	w.Back(2, 4)
	if got, want := drain(&w, 3), expect(s, 0, 2, 4, 3); !slices.Equal(got, want) {
		t.Fatalf("after Back(2, 4)\n got %v\nwant %v", got, want)
	}
}
