// Package loader defines the data-loading strategies the paper evaluates:
// the three baselines (PyTorch DataLoader, DALI, NoPFS) and Lobster with
// its two ablations (Lobster_th, Lobster_evict, Section 5.6).
//
// A Spec is a declarative description — which eviction policy the
// node-local cache uses, how deep prefetching looks ahead, and how CPU
// threads are assigned to the loading and preprocessing stages. The
// pipeline simulator (internal/pipeline) and the online runtime
// (internal/runtime) both interpret Specs, so baselines and Lobster run on
// identical mechanics and differ only in policy — the property a fair
// comparison needs.
package loader

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dataset"
)

// PolicyKind selects the node-local cache eviction policy.
type PolicyKind int

const (
	// PolicyPageCache is the segmented-LRU OS page cache the PyTorch and
	// DALI baselines effectively rely on.
	PolicyPageCache PolicyKind = iota
	// PolicyLRU is a plain LRU baseline.
	PolicyLRU
	// PolicyNoPFS is the NoPFS eviction (consumed-sample drop + LRU).
	PolicyNoPFS
	// PolicyLobster is the full reuse-count + reuse-distance policy.
	PolicyLobster
	// PolicyFIFO, PolicyNeverEvict, PolicyLFU and PolicyARC are extra
	// baselines for ablations and the policy-zoo extension experiment.
	PolicyFIFO
	PolicyNeverEvict
	PolicyLFU
	PolicyARC
	// PolicyBelady is the clairvoyant upper bound (ablation only).
	PolicyBelady
)

// ThreadMode selects how CPU threads are assigned.
type ThreadMode int

const (
	// ThreadsStatic gives every GPU a fixed loading thread count and the
	// preprocessing pool a fixed size (PyTorch, NoPFS).
	ThreadsStatic ThreadMode = iota
	// ThreadsSharedPool uses one node-wide loading pool of fixed size
	// serving all GPU queues fairly (DALI's "three threads for data
	// loading by default").
	ThreadsSharedPool
	// ThreadsDynamic runs Lobster's thread manager every iteration.
	ThreadsDynamic
)

// Spec declares one loading strategy.
type Spec struct {
	Name          string
	Policy        PolicyKind
	PrefetchDepth int // lookahead in iterations; 0 = demand-only
	Mode          ThreadMode
	// PreprocThreads / LoadingPerGPU apply to ThreadsStatic;
	// PreprocThreads / SharedLoading to ThreadsSharedPool.
	PreprocThreads int
	LoadingPerGPU  int
	SharedLoading  int
	// NUMAAware co-locates each GPU's loading threads with its share of
	// the preprocessing pool on the same socket (Section 5.2: "Lobster is
	// NUMA-aware, and co-locates data loading and preprocessing
	// threads"). The baselines place threads naively.
	NUMAAware bool
	// PrefetchThreads is the background prefetching concurrency (NoPFS's
	// double-buffering helpers), in both executions: the simulator spends
	// PrefetchThreads x batch time as its per-iteration prefetch budget,
	// and the runtime gives each node's prefetch loop exactly this many
	// read slots — reads booked and in flight at once — to drain the
	// node's prefetch feed to its full depth (at least one whenever
	// PrefetchDepth > 0). Strategies with dynamic thread
	// management additionally put *idle* loading threads to prefetch work,
	// again in both executions — the coordination the paper's second
	// challenge is about ("a bottleneck in one stage will lead to idle
	// threads in the other stages that instead could have been used to
	// alleviate the bottleneck"). The simulator adds every idle loading
	// thread-second to the budget at an efficiency factor; in the runtime a
	// loading worker whose queue is empty stages, one sample at a time,
	// the misses of the two windows that enter the demand pipeline next,
	// and goes back to its queue the moment a chunk arrives (DESIGN.md §8
	// has the mechanism, the bound and the measurements). Static and
	// shared-pool strategies keep idle loaders idle in both.
	PrefetchThreads int
}

// Validate reports whether the spec is coherent for a node with the given
// GPU count and thread budget.
func (s Spec) Validate(gpusPerNode, totalThreads int) error {
	if s.Name == "" {
		return fmt.Errorf("loader: unnamed spec")
	}
	if s.PrefetchDepth < 0 {
		return fmt.Errorf("loader: %s: negative prefetch depth", s.Name)
	}
	switch s.Mode {
	case ThreadsStatic:
		if s.LoadingPerGPU < 1 || s.PreprocThreads < 1 {
			return fmt.Errorf("loader: %s: static mode needs positive thread counts", s.Name)
		}
		if s.LoadingPerGPU*gpusPerNode+s.PreprocThreads > totalThreads {
			return fmt.Errorf("loader: %s: static threads %d exceed budget %d",
				s.Name, s.LoadingPerGPU*gpusPerNode+s.PreprocThreads, totalThreads)
		}
	case ThreadsSharedPool:
		if s.SharedLoading < 1 || s.PreprocThreads < 1 {
			return fmt.Errorf("loader: %s: shared mode needs positive thread counts", s.Name)
		}
		if s.SharedLoading+s.PreprocThreads > totalThreads {
			return fmt.Errorf("loader: %s: shared threads %d exceed budget %d",
				s.Name, s.SharedLoading+s.PreprocThreads, totalThreads)
		}
	case ThreadsDynamic:
		// The thread manager enforces the budget itself.
	default:
		return fmt.Errorf("loader: %s: unknown thread mode %d", s.Name, s.Mode)
	}
	return nil
}

// BuildPolicy constructs the spec's eviction policy for one node, given
// the node's future-access oracle (its access.Plan) and a last-copy
// predicate (used only by the Lobster policy; may be nil).
func (s Spec) BuildPolicy(plan cache.Oracle, isLastCopy func(dataset.SampleID) bool) cache.Policy {
	switch s.Policy {
	case PolicyPageCache:
		return cache.NewPageCache()
	case PolicyLRU:
		return cache.NewLRU()
	case PolicyFIFO:
		return cache.NewFIFO()
	case PolicyNeverEvict:
		return cache.NewNeverEvict()
	case PolicyLFU:
		return cache.NewLFU()
	case PolicyARC:
		return cache.NewARC()
	case PolicyNoPFS:
		return cache.NewNoPFS(plan)
	case PolicyBelady:
		return cache.NewBelady(plan)
	case PolicyLobster:
		return cache.NewLobster(plan, cache.LobsterOptions{IsLastCopy: isLastCopy})
	default:
		panic(fmt.Sprintf("loader: unknown policy kind %d", int(s.Policy)))
	}
}

// DeepPrefetchDepth is the lookahead (iterations) used by the clairvoyant
// prefetchers (NoPFS and Lobster). Two epochs of a small run would be
// deeper, but prefetch utility decays fast past the point where the cache
// cycles; 64 iterations keeps planning cheap and matches NoPFS's bounded
// prefetch buffers.
const DeepPrefetchDepth = 64

// PyTorch returns the PyTorch DataLoader baseline: "a constant number of
// threads for data loading and another constant number of threads for
// preprocessing", demand-only I/O, page-cache-like LRU.
// The split divides the node budget evenly between the two stages.
func PyTorch(gpusPerNode, totalThreads int) Spec {
	loadingPerGPU := totalThreads / 2 / gpusPerNode
	if loadingPerGPU < 1 {
		loadingPerGPU = 1
	}
	pre := totalThreads - loadingPerGPU*gpusPerNode
	if pre < 1 {
		pre = 1
	}
	return Spec{
		Name:           "pytorch",
		Policy:         PolicyPageCache,
		PrefetchDepth:  0,
		Mode:           ThreadsStatic,
		PreprocThreads: pre,
		LoadingPerGPU:  loadingPerGPU,
	}
}

// DALI returns the DALI baseline: a small node-wide shared loading pool
// ("three threads for data loading by default", plus the pipeline's own
// I/O helper), the rest of the budget on preprocessing, shallow
// double-buffered prefetch, page-cache caching.
func DALI(totalThreads int) Spec {
	// DALI's documented default is 3 CPU loading threads, but its reader
	// also issues asynchronous I/O; in this model's units (synchronous
	// I/O slots) its effective loading concurrency is about a quarter of
	// the node budget.
	shared := totalThreads / 4
	if shared < 3 {
		shared = 3
	}
	if shared > totalThreads-1 {
		shared = totalThreads - 1
	}
	return Spec{
		Name:            "dali",
		Policy:          PolicyPageCache,
		PrefetchDepth:   6,
		Mode:            ThreadsSharedPool,
		PreprocThreads:  totalThreads - shared,
		SharedLoading:   shared,
		PrefetchThreads: 2,
	}
}

// NoPFS returns the NoPFS baseline: clairvoyant deep prefetching over the
// storage hierarchy with the NoPFS eviction policy; "the thread management
// for NoPFS is the same as that with PyTorch I/O".
func NoPFS(gpusPerNode, totalThreads int) Spec {
	base := PyTorch(gpusPerNode, totalThreads)
	return Spec{
		Name:            "nopfs",
		Policy:          PolicyNoPFS,
		PrefetchDepth:   DeepPrefetchDepth,
		Mode:            ThreadsStatic,
		PreprocThreads:  base.PreprocThreads,
		LoadingPerGPU:   base.LoadingPerGPU,
		PrefetchThreads: 5,
	}
}

// Lobster returns the full system: dynamic thread management (Algorithm
// 1 + preprocessing throttling), deep prefetching with three background
// helpers, and the reuse-based eviction policy coordinating with it. In
// both executions the loading threads Algorithm 1 sized for the next
// batch prefetch while they have no batch to load (see
// Spec.PrefetchThreads): the helpers walk the whole depth, the idle
// loaders cover the nearest windows.
func Lobster() Spec {
	return Spec{
		Name:            "lobster",
		Policy:          PolicyLobster,
		PrefetchDepth:   DeepPrefetchDepth,
		Mode:            ThreadsDynamic,
		PrefetchThreads: 3,
		NUMAAware:       true,
	}
}

// LobsterTh is the Section 5.6 ablation with thread management only,
// built — like the paper's online runtime — on the DALI base: dynamic
// thread management replaces DALI's rigid shared pool, while caching and
// prefetching stay at DALI's level (page cache, shallow depth,
// background helpers). "Includes thread management but excludes cache
// eviction based on reuse distance."
func LobsterTh() Spec {
	dali := DALI(24) // prefetch defaults only; thread counts are dynamic
	return Spec{
		Name:            "lobster_th",
		Policy:          PolicyPageCache,
		PrefetchDepth:   dali.PrefetchDepth,
		Mode:            ThreadsDynamic,
		PrefetchThreads: dali.PrefetchThreads,
		NUMAAware:       true,
	}
}

// LobsterEvict is the opposite ablation: the reuse-based eviction policy
// (with deterministic deep prefetching, which it coordinates with) on top
// of DALI's rigid thread assignment.
func LobsterEvict(gpusPerNode, totalThreads int) Spec {
	_ = gpusPerNode // thread shape comes from the DALI base
	base := DALI(totalThreads)
	return Spec{
		Name:            "lobster_evict",
		Policy:          PolicyLobster,
		PrefetchDepth:   DeepPrefetchDepth,
		Mode:            ThreadsSharedPool,
		PreprocThreads:  base.PreprocThreads,
		SharedLoading:   base.SharedLoading,
		PrefetchThreads: base.PrefetchThreads,
		NUMAAware:       true,
	}
}

// Strategies lists every strategy name StrategyByName resolves. The first
// four are the paper's comparison systems (ComparedStrategies).
func Strategies() []string {
	return []string{"pytorch", "dali", "nopfs", "lobster", "lobster_th", "lobster_evict"}
}

// ComparedStrategies lists the paper's four comparison systems, PyTorch
// first: the speedup baseline of Fig. 7.
func ComparedStrategies() []string {
	return Strategies()[:4]
}

// StrategyByName resolves a strategy spec for a node shape.
func StrategyByName(name string, gpusPerNode, totalThreads int) (Spec, error) {
	switch name {
	case "pytorch":
		return PyTorch(gpusPerNode, totalThreads), nil
	case "dali":
		return DALI(totalThreads), nil
	case "nopfs":
		return NoPFS(gpusPerNode, totalThreads), nil
	case "lobster":
		return Lobster(), nil
	case "lobster_th":
		return LobsterTh(), nil
	case "lobster_evict":
		return LobsterEvict(gpusPerNode, totalThreads), nil
	default:
		return Spec{}, fmt.Errorf("loader: unknown strategy %q (want one of %v)", name, Strategies())
	}
}
