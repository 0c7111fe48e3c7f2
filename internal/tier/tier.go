// Package tier models the three-level storage hierarchy of Section 2
// (Figure 2): node-local memory cache, remote (peer) node caches, and the
// parallel file system — each with a throughput curve as a function of the
// number of concurrent I/O threads, exactly the T_l(α), T_r(β), T_PFS(γ)
// terms of the paper's performance model (Table 1, Equation 1).
//
// The curves are saturating: adding threads raises aggregate throughput
// with diminishing returns up to a peak. The PFS tier additionally has a
// global capacity shared by all compute nodes (reason (2) in Section 2 for
// why distributed caching helps: "the aggregated I/O bandwidth of the PFS
// is limited and becomes a bottleneck when multiple compute nodes compete
// for it") and a large per-operation latency (reason (3): the PFS "is not
// optimized for ... small randomly scattered reads").
package tier

import "fmt"

// Kind identifies a storage tier.
type Kind int

const (
	// Local is the node-local in-memory cache.
	Local Kind = iota
	// Remote is a peer node's cache reached over the interconnect.
	Remote
	// PFS is the parallel file system.
	PFS
	numKinds
)

// String returns the tier name.
func (k Kind) String() string {
	switch k {
	case Local:
		return "local"
	case Remote:
		return "remote"
	case PFS:
		return "pfs"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists all tiers from fastest to slowest.
func Kinds() []Kind { return []Kind{Local, Remote, PFS} }

// Curve is a saturating aggregate-throughput model:
//
//	aggregate(n) = PeakMBps * n / (n + HalfThreads)
//
// so one thread achieves Peak/(1+Half) and throughput approaches PeakMBps
// as n grows. OpLatency is the fixed per-request cost (seek/RPC/syscall),
// paid once per sample read.
type Curve struct {
	PeakMBps    float64 // asymptotic aggregate throughput, MB/s
	HalfThreads float64 // threads at which half the peak is reached
	OpLatency   float64 // seconds per operation (per sample read)
}

// Validate reports whether the curve is physically sensible.
func (c Curve) Validate() error {
	if c.PeakMBps <= 0 {
		return fmt.Errorf("tier: PeakMBps %g <= 0", c.PeakMBps)
	}
	if c.HalfThreads <= 0 {
		return fmt.Errorf("tier: HalfThreads %g <= 0", c.HalfThreads)
	}
	if c.OpLatency < 0 {
		return fmt.Errorf("tier: OpLatency %g < 0", c.OpLatency)
	}
	return nil
}

// Aggregate returns total MB/s delivered with n concurrent threads.
func (c Curve) Aggregate(n int) float64 {
	if n <= 0 {
		return 0
	}
	t := float64(n)
	return c.PeakMBps * t / (t + c.HalfThreads)
}

// PerThread returns the MB/s a single thread sees when n run concurrently.
func (c Curve) PerThread(n int) float64 {
	if n <= 0 {
		return 0
	}
	return c.Aggregate(n) / float64(n)
}

// ReadTime returns the seconds needed to read `ops` operations totalling
// `bytes` with n concurrent threads: per-op latency is paid in parallel
// across threads; the transfer shares the aggregate bandwidth.
func (c Curve) ReadTime(bytes int64, ops, n int) float64 {
	if n <= 0 || bytes < 0 || ops < 0 {
		return 0
	}
	if bytes == 0 && ops == 0 {
		return 0
	}
	latency := c.OpLatency * float64(ops) / float64(n)
	transfer := float64(bytes) / (c.Aggregate(n) * 1e6)
	return latency + transfer
}

// Hierarchy bundles the three tier curves plus the global PFS capacity.
// Its methods take a pointer: the struct is thirteen words, and the model
// functions that read it run hundreds of times per thread decision.
type Hierarchy struct {
	Local  Curve
	Remote Curve
	PFS    Curve
	// PFSGlobalMBps caps the sum of PFS throughput across all nodes. When
	// k nodes read concurrently, each sees min(Aggregate, Global/k).
	PFSGlobalMBps float64
}

// Validate checks all curves.
func (h *Hierarchy) Validate() error {
	for _, c := range []struct {
		name  string
		curve Curve
	}{{"local", h.Local}, {"remote", h.Remote}, {"pfs", h.PFS}} {
		if err := c.curve.Validate(); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	if h.PFSGlobalMBps <= 0 {
		return fmt.Errorf("tier: PFSGlobalMBps %g <= 0", h.PFSGlobalMBps)
	}
	return nil
}

// CurveOf returns the curve for a tier kind.
func (h *Hierarchy) CurveOf(k Kind) Curve {
	switch k {
	case Local:
		return h.Local
	case Remote:
		return h.Remote
	case PFS:
		return h.PFS
	default:
		panic(fmt.Sprintf("tier: unknown kind %d", int(k)))
	}
}

// PFSLatencyContention is the per-extra-node inflation of the PFS
// per-operation latency: metadata servers and OSTs queue small random
// reads from concurrent clients, so each additional active node raises
// every node's op latency by this fraction.
const PFSLatencyContention = 0.10

// PFSNodeCurve returns the effective PFS curve seen by one node when
// `activeNodes` nodes are reading from the PFS concurrently: the node-local
// saturating curve clipped by its share of the global capacity, with op
// latency inflated by client contention.
func (h *Hierarchy) PFSNodeCurve(activeNodes int) Curve {
	if activeNodes < 1 {
		activeNodes = 1
	}
	c := h.PFS
	share := h.PFSGlobalMBps / float64(activeNodes)
	if share < c.PeakMBps {
		c.PeakMBps = share
	}
	c.OpLatency *= 1 + PFSLatencyContention*float64(activeNodes-1)
	return c
}

// ReadTime computes the time to read ops operations totalling bytes from
// tier k with n threads, with activeNodes nodes sharing the PFS.
func (h *Hierarchy) ReadTime(k Kind, bytes int64, ops, n, activeNodes int) float64 {
	if k == PFS {
		return h.PFSNodeCurve(activeNodes).ReadTime(bytes, ops, n)
	}
	return h.CurveOf(k).ReadTime(bytes, ops, n)
}

// ThetaGPULike returns a hierarchy calibrated to the paper's testbed
// (Section 5.1): DGX A100 nodes with DDR4 caches, HDR200 interconnect, and
// a Lustre PFS whose small-random-read performance — not its 250 GB/s
// streaming aggregate — governs sample loading. The absolute values are
// order-of-magnitude calibrations; the experiments depend on the ratios
// (local ≫ remote ≫ PFS, per Observation 2: remote I/O is "orders of
// magnitude slower than local I/O").
func ThetaGPULike() Hierarchy {
	return Hierarchy{
		Local: Curve{
			PeakMBps:    20000, // DDR4 copy bandwidth available to readers
			HalfThreads: 1.5,
			OpLatency:   2e-6,
		},
		Remote: Curve{
			PeakMBps:    5000, // HDR200 through the cache service
			HalfThreads: 2,
			OpLatency:   150e-6,
		},
		PFS: Curve{
			PeakMBps:    1500, // per-node small-random-read ceiling
			HalfThreads: 4,
			OpLatency:   4e-3, // metadata + seek per sample
		},
		PFSGlobalMBps: 8000, // cluster-wide small-read capacity
	}
}
