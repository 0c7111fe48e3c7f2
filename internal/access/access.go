// Package access derives, from a deterministic schedule, everything the
// Lobster policies need to know about the future: for every training
// sample, when a given node will access it next, and how many times it will
// still be accessed before training ends.
//
// Section 4.4: "we can determine, at each moment during training, two
// parameters: (1) how many times each training sample will be reused by all
// GPUs until the end of training; (2) the minimum reuse distance of each
// training sample across all GPUs. To obtain these parameters efficiently,
// we maintain a list of future accesses for each training sample."
// This package is exactly that list.
package access

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/sampler"
	"repro/internal/stats"
)

// Iter is a global iteration index: epoch*I + iterationWithinEpoch.
// It is an alias (not a defined type) so that access.Plan satisfies
// oracle interfaces declared in consumer packages (e.g. cache.Oracle)
// without adapters.
type Iter = int32

// NoAccess marks "never accessed again".
const NoAccess Iter = -1

// Plan holds the future-access lists of one node for an entire training
// run. It is immutable after Build and safe for concurrent readers.
//
// Memory: one int32 per (sample, access-by-this-node). A node accesses
// |D|/N samples per epoch, so a full plan costs 4*E*|D|/N bytes — a few MB
// at the reduced experiment scales, and bounded by the horizon argument for
// full-scale runs (the Lobster policies only ever look 2 epochs ahead; see
// the reuse-distance policy in Section 4.4).
//
// The per-sample lists live in one flat backing array addressed by an
// offsets table (sample id's accesses are flat[offsets[id]:offsets[id+1]])
// rather than a slice-of-slices: building it is two allocations instead of
// one growing slice per sample, and NextUse/UsesRemaining — the innermost
// queries of every Lobster policy decision — binary-search a contiguous
// window.
type Plan struct {
	node        int
	gpusPerNode int
	iters       int // iterations per epoch
	epochs      int
	numSamples  int
	offsets     []int32 // len numSamples+1; per sample: [start, end) into flat
	flat        []Iter  // ascending global iterations, grouped by sample
}

// Build constructs the plan of `node` (0-based) for `epochs` epochs of the
// schedule. horizonEpochs bounds how far ahead the detailed lists extend;
// pass epochs (or 0) for a full-horizon plan. A run that needs every
// node's plan calls BuildAll instead: each Build walks the whole schedule.
func Build(s *sampler.Schedule, node, gpusPerNode, epochs, horizonEpochs int) (*Plan, error) {
	plans, err := build(s, node, 1, gpusPerNode, epochs, horizonEpochs)
	if err != nil {
		return nil, err
	}
	return plans[0], nil
}

// BuildAll constructs the plans of nodes 0..nodes-1, each equal to what
// Build returns for that node, in one walk of the schedule: every epoch
// permutation is generated once, not once per node.
func BuildAll(s *sampler.Schedule, nodes, gpusPerNode, epochs, horizonEpochs int) ([]*Plan, error) {
	return build(s, 0, nodes, gpusPerNode, epochs, horizonEpochs)
}

// build constructs the plans of nodes first..first+count-1.
func build(s *sampler.Schedule, first, count, gpusPerNode, epochs, horizonEpochs int) ([]*Plan, error) {
	if s == nil {
		return nil, fmt.Errorf("access: nil schedule")
	}
	if first < 0 || count < 1 || gpusPerNode < 1 || (first+count)*gpusPerNode > s.WorldSize() {
		return nil, fmt.Errorf("access: nodes %d to %d with %d GPUs each out of world %d",
			first, first+count-1, gpusPerNode, s.WorldSize())
	}
	if epochs < 1 {
		return nil, fmt.Errorf("access: epochs %d < 1", epochs)
	}
	if horizonEpochs <= 0 || horizonEpochs > epochs {
		horizonEpochs = epochs
	}
	iters := s.IterationsPerEpoch()
	numSamples := s.Dataset().Len()
	chunk := gpusPerNode * s.BatchSize() // one node's samples per iteration
	plans := make([]*Plan, count)
	for i := range plans {
		plans[i] = &Plan{
			node:        first + i,
			gpusPerNode: gpusPerNode,
			iters:       iters,
			epochs:      epochs,
			numSamples:  numSamples,
			// One slot longer than the finished table: until the scatter
			// below, sample id's count and then its fill cursor live at
			// id+2 and id+1.
			offsets: make([]int32, numSamples+2),
		}
	}
	// Single schedule walk (epoch permutations are expensive to
	// regenerate): record the nodes' whole access sequence — per
	// iteration, each node's batch in node order — and count per-sample
	// accesses, then scatter the sequence into the flat per-sample layout
	// via an offsets prefix sum.
	seq := make([]dataset.SampleID, 0, horizonEpochs*iters*count*chunk)
	for epoch := 0; epoch < horizonEpochs; epoch++ {
		for it := 0; it < iters; it++ {
			for i, p := range plans {
				seq = s.NodeBatch(seq, epoch, it, first+i, gpusPerNode)
				for _, id := range seq[len(seq)-chunk:] {
					p.offsets[id+2]++
				}
			}
		}
	}
	for _, p := range plans {
		// Running sum of the counts at id+2: offsets[id+1] becomes where
		// id's list starts, the cursor the scatter advances.
		var sum int32
		for i := 2; i < len(p.offsets); i++ {
			sum += p.offsets[i]
			p.offsets[i] = sum
		}
		p.flat = make([]Iter, sum)
	}
	pos := 0
	for g := 0; g < horizonEpochs*iters; g++ {
		for _, p := range plans {
			for _, id := range seq[pos : pos+chunk] {
				p.flat[p.offsets[id+1]] = Iter(g)
				p.offsets[id+1]++
			}
			pos += chunk
		}
	}
	for _, p := range plans {
		// Every cursor has reached the start of the next sample's list:
		// offsets[id] is id's start and offsets[id+1] its end.
		p.offsets = p.offsets[:numSamples+1]
	}
	return plans, nil
}

// Node returns the node this plan belongs to.
func (p *Plan) Node() int { return p.node }

// IterationsPerEpoch returns I.
func (p *Plan) IterationsPerEpoch() int { return p.iters }

// TotalIterations returns epochs * I.
func (p *Plan) TotalIterations() Iter { return Iter(p.epochs * p.iters) }

// NextUse returns the first iteration strictly after `after` at which this
// node accesses the sample, or NoAccess if it never does (within the plan
// horizon).
func (p *Plan) NextUse(id dataset.SampleID, after Iter) Iter {
	i := p.searchAfter(id, after)
	if i == p.offsets[id+1] {
		return NoAccess
	}
	return p.flat[i]
}

// searchAfter returns the index into flat of the first access of id
// strictly after `after`, or the sample's end offset. Hand-rolled binary
// search: this runs on every policy decision, and avoiding the
// sort.Search closure call per probe measurably cheapens the hot path.
func (p *Plan) searchAfter(id dataset.SampleID, after Iter) int32 {
	lo, hi := p.offsets[id], p.offsets[id+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if p.flat[mid] > after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// UsesRemaining returns how many accesses of the sample by this node occur
// strictly after `after`. This is the reuse count of Section 4.4.
func (p *Plan) UsesRemaining(id dataset.SampleID, after Iter) int {
	return int(p.offsets[id+1] - p.searchAfter(id, after))
}

// Future returns NextUse(id, after) and UsesRemaining(id, after) from one
// search of the sample's list: the eviction policies ask for both on every
// access.
func (p *Plan) Future(id dataset.SampleID, after Iter) (next Iter, remaining int) {
	i, end := p.searchAfter(id, after), p.offsets[id+1]
	if i == end {
		return NoAccess, 0
	}
	return p.flat[i], int(end - i)
}

// AccessesOf returns the full access list of a sample (shared slice; do not
// modify). Used by tests and the trace tooling.
func (p *Plan) AccessesOf(id dataset.SampleID) []Iter {
	return p.flat[p.offsets[id]:p.offsets[id+1]]
}

// ReuseDistanceHistogram computes the distribution of reuse distances (in
// iterations) between consecutive accesses of the same sample on this node
// — the measurement behind Fig. 4. Distances are collected into a
// log-scaled histogram from 1 to the run length.
func (p *Plan) ReuseDistanceHistogram(bins int) (*stats.Histogram, error) {
	maxD := float64(p.TotalIterations())
	if maxD < 2 {
		maxD = 2
	}
	h, err := stats.NewLogHistogram(1, maxD, bins)
	if err != nil {
		return nil, err
	}
	for id := 0; id < p.numSamples; id++ {
		list := p.flat[p.offsets[id]:p.offsets[id+1]]
		for i := 1; i < len(list); i++ {
			h.Add(float64(list[i] - list[i-1]))
		}
	}
	return h, nil
}

// MeanReuseDistance returns the average distance between consecutive
// accesses, and the number of reuse pairs observed.
func (p *Plan) MeanReuseDistance() (float64, int) {
	var sum float64
	var n int
	for id := 0; id < p.numSamples; id++ {
		list := p.flat[p.offsets[id]:p.offsets[id+1]]
		for i := 1; i < len(list); i++ {
			sum += float64(list[i] - list[i-1])
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}
