package kvstore

import (
	"strconv"

	"repro/internal/obs"
)

// ClientInstruments is the pipelined client's optional observability
// hookup: per-op latency histograms, an in-flight gauge, a redial
// counter for transparently replaced dead connections, and a counter of
// puts the shard refused as too large for its striped admission bound.
// Build one per shard with NewClientInstruments and attach via
// Client.SetInstruments (or every shard at once with
// Cluster.Instrument).
type ClientInstruments struct {
	GetSeconds      *obs.Histogram
	PutSeconds      *obs.Histogram
	StatsSeconds    *obs.Histogram
	MultiGetSeconds *obs.Histogram
	MultiPutSeconds *obs.Histogram
	InFlight        *obs.Gauge
	Redials         *obs.Counter
	TooLarge        *obs.Counter
	// RetryLater counts server sheds (statusRetryLater) absorbed by the
	// ops' retry loop — each increment is one backoff+retry.
	RetryLater *obs.Counter
}

// NewClientInstruments registers one shard's client instruments in reg
// under the lobster_kvstore_* names, labelled with the shard id.
func NewClientInstruments(reg *obs.Registry, shard string) *ClientInstruments {
	hist := func(op string) *obs.Histogram {
		h := reg.Histogram("lobster_kvstore_op_seconds",
			"KV client operation latency, per op and shard.",
			obs.LatencyBuckets(), "op", op, "shard", shard)
		// Median and tail gauges computed from the same histogram at
		// scrape time, so /metrics and the bench harness report identical
		// numbers (to bucket resolution).
		reg.GaugeFunc("lobster_kvstore_op_p50_seconds",
			"KV client median operation latency, per op and shard.",
			func() float64 { return h.Quantile(0.5) }, "op", op, "shard", shard)
		reg.GaugeFunc("lobster_kvstore_op_p99_seconds",
			"KV client p99 operation latency, per op and shard.",
			func() float64 { return h.Quantile(0.99) }, "op", op, "shard", shard)
		reg.GaugeFunc("lobster_kvstore_op_p999_seconds",
			"KV client p999 operation latency, per op and shard.",
			func() float64 { return h.Quantile(0.999) }, "op", op, "shard", shard)
		return h
	}
	return &ClientInstruments{
		GetSeconds:      hist("get"),
		PutSeconds:      hist("put"),
		StatsSeconds:    hist("stats"),
		MultiGetSeconds: hist("multiget"),
		MultiPutSeconds: hist("multiput"),
		InFlight: reg.Gauge("lobster_kvstore_inflight_ops",
			"KV client operations currently in flight.", "shard", shard),
		Redials: reg.Counter("lobster_kvstore_redials_total",
			"Dead connections transparently replaced by the client.", "shard", shard),
		TooLarge: reg.Counter("lobster_kvstore_client_toolarge_total",
			"Puts refused by the shard as exceeding its per-stripe byte budget.", "shard", shard),
		RetryLater: reg.Counter("lobster_kvstore_client_retries_total",
			"Server sheds (retry-later) absorbed by the client's backoff loop.", "shard", shard),
	}
}

// opSeconds maps a wire op byte to its latency histogram.
func (ci *ClientInstruments) opSeconds(op byte) *obs.Histogram {
	switch op {
	case opGet:
		return ci.GetSeconds
	case opPut:
		return ci.PutSeconds
	case opMultiGet:
		return ci.MultiGetSeconds
	case opMultiPut:
		return ci.MultiPutSeconds
	default:
		return ci.StatsSeconds
	}
}

// InstrumentServer surfaces a shard server's counters through reg at
// scrape time (lobster_kvstore_shard_*). The server's hot path is left
// untouched: every value is read from Server.Stats() when /metrics is
// scraped, so serving instruments costs the data path nothing.
func InstrumentServer(reg *obs.Registry, srv *Server) {
	if reg == nil || srv == nil {
		return
	}
	reg.GaugeFunc("lobster_kvstore_shard_items",
		"Entries resident in the shard.",
		func() float64 { return float64(srv.Stats().Items) })
	reg.GaugeFunc("lobster_kvstore_shard_used_bytes",
		"Bytes resident in the shard.",
		func() float64 { return float64(srv.Stats().UsedBytes) })
	reg.CounterFunc("lobster_kvstore_shard_hits_total",
		"Get requests served from the shard.",
		func() float64 { return float64(srv.Stats().Hits) })
	reg.CounterFunc("lobster_kvstore_shard_misses_total",
		"Get requests for absent keys.",
		func() float64 { return float64(srv.Stats().Misses) })
	reg.CounterFunc("lobster_kvstore_shard_evictions_total",
		"Entries evicted by the shard's LRU.",
		func() float64 { return float64(srv.Stats().Evictions) })
	reg.CounterFunc("lobster_kvstore_shard_toolarge_total",
		"Puts refused because the value exceeded the per-stripe byte budget.",
		func() float64 { return float64(srv.Stats().TooLarge) })
	reg.CounterFunc("lobster_kvstore_shard_shed_deadline_total",
		"Requests shed because their client deadline budget expired.",
		func() float64 { return float64(srv.Stats().ShedDeadline) })
	reg.CounterFunc("lobster_kvstore_shard_shed_quota_total",
		"Requests shed by the per-connection token-bucket quota.",
		func() float64 { return float64(srv.Stats().ShedQuota) })
	reg.CounterFunc("lobster_kvstore_shard_shed_queue_total",
		"Requests shed because the admission queue or slot wait ran out.",
		func() float64 { return float64(srv.Stats().ShedQueue) })
	reg.GaugeFunc("lobster_kvstore_shard_queue_depth",
		"Requests executing or waiting at the shard's admission gate.",
		func() float64 { return float64(srv.QueueDepth()) })
}

// Instrument attaches per-shard client instruments from reg to every
// shard client, labelled by index in cluster order.
func (c *Cluster) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i, cl := range c.clients {
		cl.SetInstruments(NewClientInstruments(reg, strconv.Itoa(i)))
	}
}
