package access

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/sampler"
)

// Windowed is a memory-bounded future-access oracle: it keeps detailed
// access lists only for a sliding window of epochs, plus an exact
// remaining-use counter per sample for the entire run.
//
// A full Plan for the paper's ImageNet-22K at 50 epochs costs gigabytes of
// int32s across 8 nodes. The Lobster policies never need that much
// foresight: the reuse-distance rule thresholds against 2·I − h (two
// epochs), and victim ordering only needs to distinguish "soon" from
// "far". Windowed therefore answers
//
//   - NextUse exactly within its window, and with a conservative horizon
//     value (the window end) beyond it — still "far enough" for both the
//     distance rule and farthest-first eviction;
//   - UsesRemaining exactly for the whole run, by combining in-window
//     counts with a beyond-window counter maintained as the window slides.
//
// Advance must be called at each epoch boundary (the pipeline does this).
// Not safe for concurrent use; the online runtime guards it with the
// node-cache mutex.
type Windowed struct {
	sched        *sampler.Schedule
	node         int
	gpusPerNode  int
	epochs       int
	windowEpochs int
	iters        int

	startEpoch int // first epoch with detail
	endEpoch   int // one past the last epoch with detail

	window      [][]Iter // per sample: ascending accesses within the window
	afterWindow []int32  // per sample: accesses at or after endEpoch
}

// BuildWindowed constructs the windowed oracle with detail for the first
// windowEpochs epochs (minimum 3: current + the two epochs the distance
// rule reasons about).
func BuildWindowed(s *sampler.Schedule, node, gpusPerNode, epochs, windowEpochs int) (*Windowed, error) {
	if s == nil {
		return nil, fmt.Errorf("access: nil schedule")
	}
	if node < 0 || gpusPerNode < 1 || (node+1)*gpusPerNode > s.WorldSize() {
		return nil, fmt.Errorf("access: node %d with %d GPUs out of world %d", node, gpusPerNode, s.WorldSize())
	}
	if epochs < 1 {
		return nil, fmt.Errorf("access: epochs %d < 1", epochs)
	}
	if windowEpochs < 3 {
		windowEpochs = 3
	}
	if windowEpochs > epochs {
		windowEpochs = epochs
	}
	w := &Windowed{
		sched:        s,
		node:         node,
		gpusPerNode:  gpusPerNode,
		epochs:       epochs,
		windowEpochs: windowEpochs,
		iters:        s.IterationsPerEpoch(),
		window:       make([][]Iter, s.Dataset().Len()),
		afterWindow:  make([]int32, s.Dataset().Len()),
	}
	// Count beyond-window accesses exactly, one epoch at a time (O(1)
	// extra memory beyond the counters).
	var batch []dataset.SampleID
	for epoch := windowEpochs; epoch < epochs; epoch++ {
		for it := 0; it < w.iters; it++ {
			batch = s.NodeBatch(batch[:0], epoch, it, node, gpusPerNode)
			for _, id := range batch {
				w.afterWindow[id]++
			}
		}
	}
	for epoch := 0; epoch < windowEpochs; epoch++ {
		w.addEpochDetail(epoch)
	}
	w.endEpoch = windowEpochs
	return w, nil
}

func (w *Windowed) addEpochDetail(epoch int) {
	var batch []dataset.SampleID
	for it := 0; it < w.iters; it++ {
		g := Iter(epoch*w.iters + it)
		batch = w.sched.NodeBatch(batch[:0], epoch, it, w.node, w.gpusPerNode)
		for _, id := range batch {
			w.window[id] = append(w.window[id], g)
		}
	}
}

// Advance slides the window so that `epoch` is its first detailed epoch.
// Detail for epochs before it is dropped; detail for newly covered epochs
// is generated and removed from the beyond-window counters. Advancing
// backwards is a no-op.
func (w *Windowed) Advance(epoch int) {
	if epoch <= w.startEpoch {
		return
	}
	// Drop detail before the new start.
	cutoff := Iter(epoch * w.iters)
	for id := range w.window {
		list := w.window[id]
		if len(list) == 0 || list[0] >= cutoff {
			continue
		}
		i := sort.Search(len(list), func(k int) bool { return list[k] >= cutoff })
		w.window[id] = append(w.window[id][:0], list[i:]...)
	}
	w.startEpoch = epoch
	// Extend detail to keep the window full.
	newEnd := epoch + w.windowEpochs
	if newEnd > w.epochs {
		newEnd = w.epochs
	}
	var batch []dataset.SampleID
	for e := w.endEpoch; e < newEnd; e++ {
		for it := 0; it < w.iters; it++ {
			g := Iter(e*w.iters + it)
			batch = w.sched.NodeBatch(batch[:0], e, it, w.node, w.gpusPerNode)
			for _, id := range batch {
				w.window[id] = append(w.window[id], g)
				w.afterWindow[id]--
			}
		}
	}
	if newEnd > w.endEpoch {
		w.endEpoch = newEnd
	}
}

// horizon is the conservative next-use reported for samples whose next
// access lies beyond the detailed window: the first iteration past it.
func (w *Windowed) horizon() Iter { return Iter(w.endEpoch * w.iters) }

// NextUse returns the next access strictly after `after`: exact within
// the window, the window horizon when the sample is only used later, and
// NoAccess when it is never used again.
func (w *Windowed) NextUse(id dataset.SampleID, after Iter) Iter {
	list := w.window[id]
	i := firstAfter(list, after)
	if i < len(list) {
		return list[i]
	}
	if w.afterWindow[id] > 0 {
		return w.horizon()
	}
	return NoAccess
}

// UsesRemaining returns the exact number of accesses strictly after
// `after` across the whole run, provided `after` lies within the detailed
// window (the policies only query at the current iteration, which always
// does).
func (w *Windowed) UsesRemaining(id dataset.SampleID, after Iter) int {
	list := w.window[id]
	return len(list) - firstAfter(list, after) + int(w.afterWindow[id])
}

// Future returns NextUse(id, after) and UsesRemaining(id, after) from one
// search of the sample's window.
func (w *Windowed) Future(id dataset.SampleID, after Iter) (next Iter, remaining int) {
	list := w.window[id]
	i := firstAfter(list, after)
	remaining = len(list) - i + int(w.afterWindow[id])
	switch {
	case i < len(list):
		return list[i], remaining
	case remaining > 0:
		return w.horizon(), remaining
	}
	return NoAccess, 0
}

// firstAfter returns the index of the first access in the ascending list
// strictly after `after`, or len(list).
func firstAfter(list []Iter, after Iter) int {
	return sort.Search(len(list), func(k int) bool { return list[k] > after })
}

// IterationsPerEpoch returns I.
func (w *Windowed) IterationsPerEpoch() int { return w.iters }

// WindowBounds returns the detailed epoch range [start, end).
func (w *Windowed) WindowBounds() (start, end int) { return w.startEpoch, w.endEpoch }
