package obs

import "context"

// TraceCtx is the compact trace context threaded through the data path
// so a stall observed deep in the stack — a preproc queue wait, a peer
// fetch, a kvstore op on another machine — can be attributed back to
// the (rank, epoch, iteration) that paid for it. It is a single uint64
// so it rides in hot-path structs and on the kvstore wire (a request
// frame's flagTrace field) without allocating:
//
//	bits 63..48  rank   (uint16)
//	bits 47..32  epoch  (uint16)
//	bits 31..0   iter   (uint32, global iteration index)
//
// The zero TraceCtx means "no context" and is never emitted by
// NewTraceCtx (the marker bit below keeps rank 0 / epoch 0 / iter 0
// distinguishable from absent).
type TraceCtx uint64

// traceCtxMarker keeps a real context for rank 0, epoch 0, iteration 0
// from encoding as the zero (absent) TraceCtx. Bit 47 of the epoch
// field is sacrificed for it, capping epochs at 1<<15-1 — far beyond
// any training run this runtime models.
const traceCtxMarker TraceCtx = 1 << 47

// NewTraceCtx packs a trace context. Out-of-range values saturate
// rather than corrupt neighboring fields.
func NewTraceCtx(rank, epoch int, iter int64) TraceCtx {
	return traceCtxMarker |
		TraceCtx(clampU(rank, 1<<16-1))<<48 |
		TraceCtx(clampU(epoch, 1<<15-1))<<32 |
		TraceCtx(clampU64(iter, 1<<32-1))
}

func clampU(v, max int) uint64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return uint64(max)
	}
	return uint64(v)
}

func clampU64(v, max int64) uint64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return uint64(max)
	}
	return uint64(v)
}

// Valid reports whether the context carries real attribution.
func (c TraceCtx) Valid() bool { return c != 0 }

// Rank returns the originating data-parallel rank.
func (c TraceCtx) Rank() int { return int(c >> 48) }

// Epoch returns the originating epoch.
func (c TraceCtx) Epoch() int { return int((c >> 32) & (1<<15 - 1)) }

// Iter returns the originating global iteration index.
func (c TraceCtx) Iter() int64 { return int64(uint32(c)) }

// traceKey is the context key WithTrace stores a TraceCtx under.
type traceKey struct{}

// WithTrace returns ctx carrying t, so a call that takes a context (a kv
// op) sends the trace with its deadline. A zero t returns ctx itself:
// untraced calls allocate nothing.
func WithTrace(ctx context.Context, t TraceCtx) context.Context {
	if !t.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the TraceCtx ctx carries, or zero when it has none.
func TraceFrom(ctx context.Context) TraceCtx {
	t, _ := ctx.Value(traceKey{}).(TraceCtx)
	return t
}
