// Package obs is the live instrumentation layer: a named registry of
// atomic counters, gauges and lock-striped latency histograms, plus a
// bounded span recorder that exports Chrome trace-event JSON
// (trace.go). The paper's whole argument rests on seeing where time
// goes — Fig. 3's per-stage breakdown, Fig. 8's imbalance counts,
// §5.5's hit ratios — and this package gives the online runtime and the
// kvstore the per-stage visibility those figures need, while a run is
// in flight rather than after it.
//
// Design constraints, in order:
//
//   - Stdlib only. The exposition endpoint speaks the Prometheus text
//     format (prometheus.go) so any stock scraper works, but nothing
//     here imports anything beyond the standard library and
//     internal/stats.
//   - Allocation-free on the hot path. Recording — Counter.Add,
//     Gauge.Set, Histogram.Observe, TraceRing.Span — never allocates.
//     All allocation happens at registration time or at scrape time.
//   - Near-zero cost when disabled. Every instrument checks one shared
//     atomic flag (plus a nil-receiver check, so un-instrumented code
//     paths need no conditionals); a disabled registry costs a couple
//     of predictable branches per call. BENCH_obs.json records the
//     measured overhead on the runtime iteration hot path.
//
// Naming convention: every instrument is lobster_<component>_<metric>
// (e.g. lobster_runtime_pfs_reads_total); counters end in _total,
// histograms in _seconds or _bytes. lobster-lint's obsnaming check
// enforces this at the call site.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Instrument family types, as emitted in Prometheus # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry is a named set of instruments. Registration (Counter, Gauge,
// Histogram, ...) is idempotent: asking for an already-registered
// name+label series returns the existing instrument, so per-run setup
// code can re-register against a long-lived registry. A registry is
// enabled at creation; SetEnabled(false) turns every owned instrument
// into a near-free no-op without detaching it.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	families map[string]*family
}

// family groups every label-series registered under one metric name.
type family struct {
	name   string
	help   string
	typ    string
	series []*series
	byKey  map[string]*series
}

// series is one (name, labels) instrument instance.
type series struct {
	labels  string // rendered {k="v",...}, or ""
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // CounterFunc / GaugeFunc callback
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{families: make(map[string]*family)}
	r.enabled.Store(true)
	return r
}

// SetEnabled flips recording for every instrument owned by the
// registry. Disabled instruments drop observations; callbacks
// (GaugeFunc/CounterFunc) are still evaluated at scrape time.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Counter registers (or returns the existing) monotonic counter.
// Labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.register(name, help, typeCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{en: &r.enabled}
	}
	r.mu.Unlock()
	return s.counter
}

// Gauge registers (or returns the existing) settable gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.register(name, help, typeGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{en: &r.enabled}
	}
	r.mu.Unlock()
	return s.gauge
}

// GaugeFunc registers a gauge whose value is fn(), evaluated at scrape
// time — the zero-hot-path-cost way to expose an existing atomic or a
// queue length. Re-registering the same series replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	s := r.register(name, help, typeGauge, labels)
	s.fn = fn
	r.mu.Unlock()
}

// CounterFunc is GaugeFunc for monotonic values maintained elsewhere
// (e.g. a kvstore.Server's hit counter surfaced over /metrics).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	s := r.register(name, help, typeCounter, labels)
	s.fn = fn
	r.mu.Unlock()
}

// Histogram registers (or returns the existing) lock-striped latency
// histogram with the given bucket upper bounds (strictly increasing;
// +Inf is implicit). See histogram.go.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	s := r.register(name, help, typeHistogram, labels)
	if s.hist == nil {
		s.hist = newHistogram(&r.enabled, buckets)
	}
	r.mu.Unlock()
	return s.hist
}

// register validates and interns the (name, labels) series, returning
// with r.mu HELD so the caller can finish initializing the series
// before anyone can look it up. Misuse (bad name, odd label count,
// re-registering a name as a different type) panics: instrument
// registration is programmer-controlled setup code, not input handling.
func (r *Registry) register(name, help, typ string, labels []string) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s registered with odd label list %q", name, labels))
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ {
		r.mu.Unlock()
		panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, typ, f.typ))
	}
	s := f.byKey[rendered]
	if s == nil {
		s = &series{labels: rendered}
		f.byKey[rendered] = s
		f.series = append(f.series, s)
	}
	//lint:allow mutex returns with r.mu held by contract; every caller unlocks
	return s
}

// validMetricName enforces the Prometheus metric-name charset
// ([a-zA-Z_:][a-zA-Z0-9_:]*). The stricter lobster_<component>_<metric>
// project convention is enforced statically by lobster-lint.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels pre-renders the {k="v",...} suffix at registration time
// so scrapes never re-escape. Label order is the caller's: series
// identity is the rendered string.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	out := "{"
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			out += ","
		}
		out += labels[i] + `="` + escapeLabelValue(labels[i+1]) + `"`
	}
	return out + "}"
}

// sortedFamilies snapshots the family list for a deterministic scrape.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// Counter is a monotonically increasing instrument. The zero method set
// is safe on a nil receiver, so un-instrumented code paths can hold nil
// pointers and call Add unconditionally.
type Counter struct {
	v  atomic.Uint64
	en *atomic.Bool
}

// Inc adds one.
//
//lint:hotpath recording must stay allocation-free (BENCH_obs.json asserts 0 allocs/op)
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter. No-op when nil or the registry is
// disabled.
//
//lint:hotpath recording must stay allocation-free (BENCH_obs.json asserts 0 allocs/op)
func (c *Counter) Add(n uint64) {
	if c == nil || !c.en.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 when nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instrument holding an int64 (queue depths,
// in-flight ops, worker counts). Nil-receiver safe like Counter.
type Gauge struct {
	v  atomic.Int64
	en *atomic.Bool
}

// Set stores an absolute value.
//
//lint:hotpath recording must stay allocation-free (BENCH_obs.json asserts 0 allocs/op)
func (g *Gauge) Set(v int64) {
	if g == nil || !g.en.Load() {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (use negative deltas to decrement).
//
//lint:hotpath recording must stay allocation-free (BENCH_obs.json asserts 0 allocs/op)
func (g *Gauge) Add(delta int64) {
	if g == nil || !g.en.Load() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 when nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
