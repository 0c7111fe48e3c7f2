// Package sampler produces the deterministic sample access schedule of a
// data-parallel training run.
//
// Section 2 of the paper: "a pseudo-random number generator is used to
// shuffle the training samples ... Since the seed of the pseudo-random
// number generator is known in advance, the I/O access pattern necessary to
// read the training samples can be made fully deterministic." This package
// is that property, reified: given (seed, epoch) every rank reconstructs
// the identical global permutation, and therefore every node can compute
// any other node's future accesses — the foundation of clairvoyant
// prefetching (NoPFS) and of Lobster's reuse-distance eviction.
//
// The distribution of samples to ranks follows the PyTorch
// DistributedSampler convention: a single global permutation per epoch,
// with rank r taking elements perm[r], perm[r+G], perm[r+2G], ... so that
// batch h of rank r is perm[(h*B+k)*G + r] for k in [0, B).
package sampler

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Schedule is the deterministic access schedule of one training run.
// It is immutable after construction and safe for concurrent readers
// except for the epoch-permutation cache, which is guarded internally.
type Schedule struct {
	ds        *dataset.Dataset
	worldSize int // total number of GPUs (N*M)
	batch     int // per-GPU mini-batch size |B|
	seed      uint64
	iters     int // iterations per epoch, I = floor(|D| / (B*G))

	// Tiny permutation cache. Two slots suffice because every consumer
	// moves through the epochs in order and at most two are in use at a
	// time: the plan builder (access.BuildAll) walks one epoch after the
	// other, once, before the run starts; the run itself
	// (the simulator's step, the runtime's ranks and thread decisions,
	// each node's prefetch Walk in either) reads the current epoch and,
	// near its end, the first iterations of the next. A consumer that
	// alternated between three epochs would reshuffle on every call.
	// Guarded by mu: the online runtime calls Batch from many goroutines.
	mu    sync.Mutex
	cache [2]permEntry
}

type permEntry struct {
	epoch int
	perm  []dataset.SampleID
}

// Config describes a schedule.
type Config struct {
	WorldSize int    // total GPUs
	BatchSize int    // per-GPU mini-batch size
	Seed      uint64 // base seed; epoch seeds derive from it
}

// New builds a schedule for the dataset under cfg. The last partial
// iteration of each epoch is dropped (the paper's floor variant).
func New(ds *dataset.Dataset, cfg Config) (*Schedule, error) {
	if ds == nil {
		return nil, fmt.Errorf("sampler: nil dataset")
	}
	if cfg.WorldSize < 1 {
		return nil, fmt.Errorf("sampler: WorldSize %d < 1", cfg.WorldSize)
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("sampler: BatchSize %d < 1", cfg.BatchSize)
	}
	iters := ds.Len() / (cfg.BatchSize * cfg.WorldSize)
	if iters < 1 {
		return nil, fmt.Errorf("sampler: dataset of %d samples too small for %d GPUs x batch %d",
			ds.Len(), cfg.WorldSize, cfg.BatchSize)
	}
	s := &Schedule{
		ds:        ds,
		worldSize: cfg.WorldSize,
		batch:     cfg.BatchSize,
		seed:      cfg.Seed,
		iters:     iters,
	}
	s.cache[0].epoch = -1
	s.cache[1].epoch = -1
	return s, nil
}

// Dataset returns the underlying dataset.
func (s *Schedule) Dataset() *dataset.Dataset { return s.ds }

// WorldSize returns the total number of GPUs.
func (s *Schedule) WorldSize() int { return s.worldSize }

// BatchSize returns the per-GPU mini-batch size.
func (s *Schedule) BatchSize() int { return s.batch }

// IterationsPerEpoch returns I.
func (s *Schedule) IterationsPerEpoch() int { return s.iters }

// SamplesPerEpoch returns the number of samples actually consumed per
// epoch (excluding the dropped tail).
func (s *Schedule) SamplesPerEpoch() int { return s.iters * s.batch * s.worldSize }

// EpochPerm returns the global permutation of the given epoch. The returned
// slice is shared and must not be modified. Safe for concurrent use.
func (s *Schedule) EpochPerm(epoch int) []dataset.SampleID {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.cache {
		if s.cache[i].epoch == epoch {
			return s.cache[i].perm
		}
	}
	perm := s.buildPerm(epoch)
	// Evict the older slot (the one whose epoch is farther from this one).
	slot := 0
	if abs(s.cache[0].epoch-epoch) < abs(s.cache[1].epoch-epoch) {
		slot = 1
	}
	s.cache[slot] = permEntry{epoch: epoch, perm: perm}
	return perm
}

func (s *Schedule) buildPerm(epoch int) []dataset.SampleID {
	r := stats.NewRNG(stats.DeriveSeed(s.seed, uint64(epoch)+0x10001))
	perm := make([]dataset.SampleID, s.ds.Len())
	for i := range perm {
		perm[i] = dataset.SampleID(i)
	}
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm
}

// Batch appends the mini-batch of (epoch, iteration, rank) to dst and
// returns it. iteration must be in [0, I); rank in [0, WorldSize).
func (s *Schedule) Batch(dst []dataset.SampleID, epoch, iteration, rank int) []dataset.SampleID {
	if iteration < 0 || iteration >= s.iters {
		panic(fmt.Sprintf("sampler: iteration %d out of [0, %d)", iteration, s.iters))
	}
	if rank < 0 || rank >= s.worldSize {
		panic(fmt.Sprintf("sampler: rank %d out of [0, %d)", rank, s.worldSize))
	}
	perm := s.EpochPerm(epoch)
	for k := 0; k < s.batch; k++ {
		dst = append(dst, perm[(iteration*s.batch+k)*s.worldSize+rank])
	}
	return dst
}

// NodeBatch appends the union of the mini-batches of all GPUs of a node
// (ranks [node*gpusPerNode, (node+1)*gpusPerNode)) for one iteration.
// Order is GPU-major: all of GPU 0's batch, then GPU 1's, etc.
func (s *Schedule) NodeBatch(dst []dataset.SampleID, epoch, iteration, node, gpusPerNode int) []dataset.SampleID {
	for j := 0; j < gpusPerNode; j++ {
		dst = s.Batch(dst, epoch, iteration, node*gpusPerNode+j)
	}
	return dst
}

// NodeWindow appends the same samples as NodeBatch in prefetch order:
// sample k of every GPU of the node before sample k+1 of any, so a
// partially staged window covers all GPUs evenly instead of leaving the
// last GPU the straggler every rank waits for. Sample k of the node's
// GPUs is the contiguous run perm[(iteration*B+k)*G + node*M : +M].
func (s *Schedule) NodeWindow(dst []dataset.SampleID, epoch, iteration, node, gpusPerNode int) []dataset.SampleID {
	first := node * gpusPerNode
	if iteration < 0 || iteration >= s.iters || first < 0 || gpusPerNode < 1 || first+gpusPerNode > s.worldSize {
		panic(fmt.Sprintf("sampler: window of iteration %d, node %d x %d GPUs out of [0, %d) x [0, %d)",
			iteration, node, gpusPerNode, s.iters, s.worldSize))
	}
	perm := s.EpochPerm(epoch)
	for k := 0; k < s.batch; k++ {
		at := (iteration*s.batch+k)*s.worldSize + first
		dst = append(dst, perm[at:at+gpusPerNode]...)
	}
	return dst
}

// Walk is one node's prefetch cursor over its future accesses: windows
// nearest iteration first, each in NodeWindow order, up to the run's last
// iteration. The cursor is (iteration, offset into that window); the
// window under it is built once, when the cursor first reads it. The
// caller keeps its own rules — where a walk starts, which candidates it
// passes over, when it stops — and calls these methods under its own
// synchronization: a Walk is not safe for concurrent use.
type Walk struct {
	sched      *Schedule
	node, gpus int
	last       int // the run's last iteration
	iter, off  int
	win        []dataset.SampleID // window iter while filled
	filled     bool
}

// NewWalk returns node's walk over a run of totalIters iterations, with
// the cursor at the head of iteration 0.
func (s *Schedule) NewWalk(node, gpusPerNode, totalIters int) Walk {
	return Walk{sched: s, node: node, gpus: gpusPerNode, last: totalIters - 1}
}

// StartAt moves the cursor forward to the head of window it when it is
// behind it; a cursor at or past it stays where it is.
func (w *Walk) StartAt(it int) {
	if w.iter < it {
		w.iter, w.off, w.filled = it, 0, false
	}
}

// Next returns the candidate under the cursor, moving over exhausted
// windows, as long as the cursor's window is at most limit and the run's
// last iteration; ok is false past that. It does not move past the
// candidate: Skip does.
func (w *Walk) Next(limit int) (id dataset.SampleID, ok bool) {
	if limit > w.last {
		limit = w.last
	}
	for w.iter <= limit {
		if !w.filled {
			ipe := w.sched.iters
			w.win = w.sched.NodeWindow(w.win[:0], w.iter/ipe, w.iter%ipe, w.node, w.gpus)
			w.filled = true
		}
		if w.off < len(w.win) {
			return w.win[w.off], true
		}
		w.iter, w.off, w.filled = w.iter+1, 0, false
	}
	return 0, false
}

// Skip moves the cursor past the candidate Next returned.
func (w *Walk) Skip() { w.off++ }

// Pos returns the cursor: the window's iteration and the offset in it.
func (w *Walk) Pos() (iter, off int) { return w.iter, w.off }

// Back moves the cursor back to (iter, off) when that is earlier than
// where it is; a later position leaves it where it is. A different
// window is built again when Next reaches it.
func (w *Walk) Back(iter, off int) {
	if iter > w.iter || (iter == w.iter && off >= w.off) {
		return
	}
	w.filled = w.filled && iter == w.iter
	w.iter, w.off = iter, off
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
