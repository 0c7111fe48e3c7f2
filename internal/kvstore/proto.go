package kvstore

import (
	"bufio"
	"errors"
	"math/bits"
	"sync"
)

// Protocol ops. Byte 3, the retired delete op, is unknown to the
// server like any other unlisted byte.
const (
	opGet byte = iota + 1
	opPut
	_
	opStats
	opMultiGet
	opMultiPut
)

// Response statuses.
const (
	statusOK byte = iota + 1
	statusNotFound
	statusError
	statusTooLarge
	// statusRetryLater is the admission layer's cheap rejection: the
	// request was shed (deadline expired, over quota, or queue full)
	// without occupying a worker. Clients back off and retry.
	statusRetryLater
)

// statsWireLen is the encoded size of a Stats payload: nine big-endian
// u64 counters (items, used bytes, hits, misses, evictions, too-large
// refusals, and the three admission shed counters).
const statsWireLen = 72

// frameMagic opens every request frame. The retired 0xA2–0xA4 magics
// of the earlier framings are not reused, so a peer still speaking one
// of them is dropped at its first byte instead of misparsed.
const frameMagic byte = 0xA5

// Request flag bits; any other bit set drops the connection.
//
// flagDeadline adds a u32 after the request ID: the remaining deadline
// budget in microseconds, measured by the client when the frame is
// serialized. A relative budget needs no clock synchronization; the
// server restarts it at parse time, so it bounds the time a request may
// spend queued behind the admission gate and executing, not time on
// the wire.
//
// flagTrace adds a u64 after the budget (if any): an obs.TraceCtx
// packing the originating (rank, epoch, iter). The server stamps it on
// the span it records for the request, so /trace.json scraped from a kv
// shard can be merged with the requesting rank's trace and correlated on
// the rank/iter labels.
const (
	flagDeadline byte = 1 << iota
	flagTrace

	knownFlags = flagDeadline | flagTrace
)

// maxKeyLen, maxValLen and maxBatchLen bound request sizes (defense
// against corrupt or hostile peers).
const (
	maxKeyLen   = 1 << 10
	maxValLen   = 64 << 20
	maxBatchLen = 1 << 16 // keys per MultiGet/MultiPut frame
)

// ErrTooLarge is returned by Put/MultiPut when a value exceeds the
// receiving shard's capacity and can never be admitted.
var ErrTooLarge = errors.New("kvstore: value exceeds shard capacity")

// ErrRetryLater is returned when the server sheds a request at
// admission (statusRetryLater) and the retry budget is exhausted: every
// client op retries a shed with jittered exponential backoff until its
// context or retryAttempts runs out.
var ErrRetryLater = errors.New("kvstore: server overloaded, retry later")

// errFrame is the generic malformed-frame error; connections carrying a
// malformed frame are dropped.
var errFrame = errors.New("kvstore: malformed frame")

// readLen and friends move u32 length fields byte-at-a-time through
// bufio: unlike an io.ReadFull/Write with a stack array, nothing
// escapes, so the frame hot path stays allocation-free.
//
//lint:hotpath length fields move byte-at-a-time exactly so the per-frame path stays allocation-free
func readLen(r *bufio.Reader, max uint32) (uint32, error) {
	n, err := readU32(r)
	if err != nil {
		return 0, err
	}
	if n > max {
		return 0, errors.New("kvstore: frame too large")
	}
	return n, nil
}

//lint:hotpath length fields move byte-at-a-time exactly so the per-frame path stays allocation-free
func writeU32(w *bufio.Writer, v uint32) {
	// bufio errors are sticky; the eventual Flush surfaces the first.
	_ = w.WriteByte(byte(v >> 24))
	_ = w.WriteByte(byte(v >> 16))
	_ = w.WriteByte(byte(v >> 8))
	_ = w.WriteByte(byte(v))
}

//lint:hotpath length fields move byte-at-a-time exactly so the per-frame path stays allocation-free
func writeU64(w *bufio.Writer, v uint64) {
	writeU32(w, uint32(v>>32))
	writeU32(w, uint32(v))
}

//lint:hotpath length fields move byte-at-a-time exactly so the per-frame path stays allocation-free
func readU64(r *bufio.Reader) (uint64, error) {
	hi, err := readU32(r)
	if err != nil {
		return 0, err
	}
	lo, err := readU32(r)
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

//lint:hotpath length fields move byte-at-a-time exactly so the per-frame path stays allocation-free
func readU32(r *bufio.Reader) (uint32, error) {
	var v uint32
	for i := 0; i < 4; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		v = v<<8 | uint32(b)
	}
	return v, nil
}

// bufpool is a size-classed free list for transient request/response
// scratch (key buffers, status vectors). Classes are powers of two from
// 32 B up to maxValLen; anything larger is allocated directly. Buffers
// travel inside a reusable *pbuf wrapper so recycling one allocates
// nothing (a bare []byte would box a fresh slice header on every
// Pool.Put). They flow through getBuf/putBuf on both the client and
// the server, so the steady-state hot path allocates (almost) nothing
// per op.
var bufpool [27]sync.Pool

// pbuf is a pooled buffer; use p.b, return with putBuf.
type pbuf struct{ b []byte }

// sizeClass returns the pool index whose capacity (1<<idx) fits n.
func sizeClass(n int) int {
	if n <= 32 {
		return 5
	}
	return bits.Len(uint(n - 1))
}

// getBuf returns a wrapper holding a length-n buffer.
func getBuf(n int) *pbuf {
	if n > maxValLen {
		return &pbuf{b: make([]byte, n)}
	}
	c := sizeClass(n)
	if p, ok := bufpool[c].Get().(*pbuf); ok {
		p.b = p.b[:n]
		return p
	}
	return &pbuf{b: make([]byte, n, 1<<c)}
}

// putBuf recycles a buffer obtained from getBuf. Callers must not
// retain p or p.b afterwards.
func putBuf(p *pbuf) {
	c := cap(p.b)
	if c < 32 || c > maxValLen || c&(c-1) != 0 {
		return // oversized one-off: let the GC have it
	}
	p.b = p.b[:0]
	bufpool[sizeClass(c)].Put(p)
}
