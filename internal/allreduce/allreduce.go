// Package allreduce implements the data-parallel gradient averaging that
// makes stragglers everyone's problem: "as all GPUs must cooperate to
// average their gradients during the backward pass, these stragglers
// ultimately slow all GPUs" (Section 1).
//
// The collective is one shared-memory rendezvous per round, which is
// also the group's barrier: every rank deposits its gradient and
// arrives once; the last to arrive sums the deposits, runs the group's
// per-round action with every other rank parked, and releases them; each
// rank then copies the result into its own slice. The sum is added in
// the order a two-phase ring allreduce (reduce-scatter + all-gather, the
// algorithm NCCL runs across a node group) adds it: chunk c of W
// near-equal chunks starts at rank c's values and adds ranks c+1, c+2, …
// (mod W). Results are bit-identical to that ring's, without its 2·(W−1)
// channel hops per rank.
package allreduce

import (
	"fmt"
	"sync"
)

// Ring is a W-participant allreduce group. Create once, then call Reduce
// or Average from exactly W goroutines (one per rank) per round.
// Successive rounds reuse the group. The name is the algorithm whose
// addition order the group keeps.
type Ring struct {
	world  int
	onLast func(round int)

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	round   int
	err     error // the released round's outcome, read by every rank
	// grads holds the round's deposited slices by rank; sum is what every
	// rank copies out. Only the last arriver writes sum, while every
	// other rank is parked, and a rank copies out before it can arrive at
	// the next round, so sum needs no lock of its own.
	grads [][]float64
	sum   []float64
}

// NewRing creates an allreduce group of the given world size.
func NewRing(world int) (*Ring, error) { return NewGroup(world, nil) }

// NewGroup creates an allreduce group whose rounds are also its
// members' barrier: once per round, after the sum and before any rank
// returns, the last rank to arrive calls onLast(round) (rounds count
// from 0) while every other rank waits. onLast may be nil.
func NewGroup(world int, onLast func(round int)) (*Ring, error) {
	if world < 1 {
		return nil, fmt.Errorf("allreduce: world %d < 1", world)
	}
	r := &Ring{world: world, onLast: onLast, grads: make([][]float64, world)}
	r.cond = sync.NewCond(&r.mu)
	return r, nil
}

// World returns the group size.
func (r *Ring) World() int { return r.world }

// Reduce sums `grad` element-wise across all ranks, in place: when every
// rank has called Reduce, each rank's slice holds the identical global
// sum. All ranks must pass slices of the same length; otherwise every
// rank gets an error and its slice is left as it was. The call blocks
// until the collective completes.
func (r *Ring) Reduce(rank int, grad []float64) error {
	return r.collective(rank, grad, false)
}

// Average is Reduce followed by division by the world size — the actual
// gradient-averaging step of data-parallel SGD.
func (r *Ring) Average(rank int, grad []float64) error {
	return r.collective(rank, grad, true)
}

func (r *Ring) collective(rank int, grad []float64, average bool) error {
	if rank < 0 || rank >= r.world {
		return fmt.Errorf("allreduce: rank %d out of [0, %d)", rank, r.world)
	}
	round, last, err := r.arrive(rank, grad)
	if last {
		// Every other rank is parked until release: the deposits and sum
		// are this goroutine's alone.
		err = r.fold()
		if r.onLast != nil {
			r.onLast(round)
		}
		r.release(err)
	}
	if err != nil || r.world == 1 {
		return err // a world of one: the slice is the sum, and dividing by 1 changes nothing
	}
	if !average {
		copy(grad, r.sum)
		return nil
	}
	inv := 1 / float64(r.world)
	for i, v := range r.sum {
		grad[i] = v * inv
	}
	return nil
}

// arrive deposits rank's gradient for the round in progress. The last
// rank to arrive returns at once with last set; every other rank waits
// for the release and returns the round's outcome.
func (r *Ring) arrive(rank int, grad []float64) (round int, last bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.grads[rank] = grad
	r.arrived++
	round = r.round
	if r.arrived == r.world {
		return round, true, nil
	}
	for round == r.round {
		r.cond.Wait()
	}
	return round, false, r.err
}

// fold sums the deposits into r.sum in the ring's addition order. A
// world of one has nothing to add.
func (r *Ring) fold() error {
	n := len(r.grads[0])
	for rank, g := range r.grads {
		if len(g) != n {
			return fmt.Errorf("allreduce: rank %d gradient length %d, rank 0's %d (mismatched gradient sizes?)",
				rank, len(g), n)
		}
	}
	w := r.world
	if w == 1 {
		return nil
	}
	if cap(r.sum) < n {
		r.sum = make([]float64, n)
	}
	r.sum = r.sum[:n]
	for c := 0; c < w; c++ {
		lo, hi := n*c/w, n*(c+1)/w
		dst := r.sum[lo:hi]
		copy(dst, r.grads[c][lo:hi])
		for k := 1; k < w; k++ {
			for i, v := range r.grads[(c+k)%w][lo:hi] {
				dst[i] += v
			}
		}
	}
	return nil
}

// release ends the round in progress with err as every rank's outcome
// and wakes the parked ranks.
func (r *Ring) release(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arrived = 0
	r.round++
	r.err = err
	r.cond.Broadcast()
}
