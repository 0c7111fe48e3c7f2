package plan

import "math"

// GPUIter is one GPU's breakdown of one iteration (the bars of Fig. 3),
// in seconds.
type GPUIter struct {
	Load    float64 // data loading
	Preproc float64 // preprocessing
	Train   float64 // training compute
	Stall   float64 // waiting for its own data
	Idle    float64 // waiting at the allreduce for stragglers
}

// IterRecord is one iteration as both executions record it: the
// simulator (pipeline.Result.Trace) and the live runtime
// (runtime.Stats.Trace).
type IterRecord struct {
	Epoch     int
	Iter      int
	BatchTime float64 // allreduce to allreduce
	PerGPU    []GPUIter
	Threads   []NodeThreads // each node's thread assignment
}

// NewIterRecord records a batchTime-long iteration: a copy of gpus, each
// GPU's Idle set to what the batch leaves after its Stall and Train.
func NewIterRecord(epoch, iter int, batchTime float64, gpus []GPUIter, threads []NodeThreads) IterRecord {
	rec := IterRecord{Epoch: epoch, Iter: iter, BatchTime: batchTime, PerGPU: append([]GPUIter(nil), gpus...), Threads: threads}
	for g := range rec.PerGPU {
		rec.PerGPU[g].Idle = math.Max(0, batchTime-rec.PerGPU[g].Stall-rec.PerGPU[g].Train)
	}
	return rec
}

// imbalanceFrac is the stall spread, in training steps, above which an
// iteration is imbalanced: 1.0, a straggler held the barrier for at
// least one extra step. Calibrated so the DALI motivation study
// reproduces the paper's "65.3% of iterations" (DESIGN.md §6).
const imbalanceFrac = 1.0

// Imbalance is the one load-imbalance rule (Observation 1, Fig. 8): an
// iteration is imbalanced when the spread of its per-GPU Stall exceeds
// imbalanceFrac times the training step. critical is the rank that
// stalled longest (the lowest on ties): the one the barrier waited for.
func Imbalance(gpus []GPUIter, step float64) (imbalanced bool, critical int) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for g := range gpus {
		s := gpus[g].Stall
		if s < lo {
			lo = s
		}
		if s > hi {
			hi, critical = s, g
		}
	}
	return hi-lo > imbalanceFrac*step, critical
}
