package kvstore

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// FaultOps selects which data ops a FaultConfig applies to. Zero means
// all data ops; opStats is always exempt so monitoring survives chaos.
type FaultOps uint8

const (
	FaultGet FaultOps = 1 << iota
	FaultPut
	FaultMultiGet
	FaultMultiPut
)

// matches reports whether the mask covers a wire op.
func (o FaultOps) matches(op byte) bool {
	if o == 0 {
		return op != opStats
	}
	switch op {
	case opGet:
		return o&FaultGet != 0
	case opPut:
		return o&FaultPut != 0
	case opMultiGet:
		return o&FaultMultiGet != 0
	case opMultiPut:
		return o&FaultMultiPut != 0
	default:
		return false
	}
}

// FaultConfig is a shard's fault-injection profile (Server.SetFault):
// per-request service lag with optional seeded jitter, a probability of
// answering with statusError, and a probability of severing the
// connection mid-op — shared by the fault tests, the runtime's kv-tier
// tests and the overload benchmarks.
type FaultConfig struct {
	// Lag is a fixed extra service delay per matched request, applied
	// while the request occupies its in-flight slot.
	Lag time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter), drawn from the
	// config's seeded RNG.
	Jitter time.Duration
	// ErrRate is the per-request probability of answering statusError
	// (the request is otherwise well-formed; framing is preserved).
	ErrRate float64
	// DropRate is the per-request probability of severing the connection
	// mid-op — the crashed-shard failure mode clients must redial
	// through.
	DropRate float64
	// Ops scopes the fault to specific ops (zero = all data ops).
	Ops FaultOps
	// Seed seeds the jitter/error draws; 0 derives an arbitrary fixed
	// seed, so even unseeded configs are deterministic per process.
	Seed uint64
}

// IsZero reports whether the config injects nothing.
func (c FaultConfig) IsZero() bool {
	return c.Lag == 0 && c.Jitter == 0 && c.ErrRate == 0 && c.DropRate == 0
}

// faultVerdict is applyFault's decision for one request.
type faultVerdict uint8

const (
	faultNone faultVerdict = iota
	faultErr               // answer statusError
	faultDrop              // sever the connection
)

// faultState is one installed FaultConfig plus its RNG. Installed
// whole-sale behind an atomic pointer so SetFault is safe mid-serve and
// the healthy fast path costs one pointer load.
type faultState struct {
	cfg FaultConfig
	mu  sync.Mutex
	rng *stats.RNG
}

// applyFault runs the shard's fault profile against one request: sleeps
// the injected lag (outside the draw lock) and returns whether the
// request should error out or the connection drop. Counted on the
// store's injection counters so tests and harnesses can assert faults
// actually fired.
func (st *store) applyFault(op byte) faultVerdict {
	fs := st.fault.Load()
	if fs == nil || !fs.cfg.Ops.matches(op) {
		return faultNone
	}
	extra := fs.cfg.Lag
	v := faultNone
	fs.mu.Lock()
	if fs.cfg.Jitter > 0 {
		extra += time.Duration(fs.rng.Int63() % int64(fs.cfg.Jitter))
	}
	if fs.cfg.DropRate > 0 && fs.rng.Float64() < fs.cfg.DropRate {
		v = faultDrop
	} else if fs.cfg.ErrRate > 0 && fs.rng.Float64() < fs.cfg.ErrRate {
		v = faultErr
	}
	fs.mu.Unlock()
	if extra > 0 {
		time.Sleep(extra)
	}
	switch v {
	case faultErr:
		st.faultErrs.Add(1)
	case faultDrop:
		st.faultDrops.Add(1)
	}
	return v
}

// setFault installs (or with a zero config clears) the fault profile.
func (st *store) setFault(cfg FaultConfig) {
	if cfg.IsZero() {
		st.fault.Store(nil)
		return
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x10b57e4 // arbitrary fixed default: unseeded != nondeterministic
	}
	st.fault.Store(&faultState{cfg: cfg, rng: stats.NewRNG(seed)})
}

// FaultCounts reports how many requests the installed fault profiles
// have errored and dropped so far.
func (s *Server) FaultCounts() (errs, drops uint64) {
	return s.st.faultErrs.Load(), s.st.faultDrops.Load()
}
