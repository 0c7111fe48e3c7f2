package kvstore

import (
	"bufio"
	"encoding/binary"
	"hash/maphash"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// minStripeBytes is the smallest per-stripe byte budget worth striping
// for: below it the auto-sizing collapses stripes so tiny shards keep
// the exact global-LRU semantics of an unstriped store.
const minStripeBytes = 64 << 10

// defaultStripes caps the automatic stripe count.
const defaultStripes = 16

// stripeSeed keys the per-process stripe hash. maphash gives a strong,
// per-process-randomized distribution so hostile key sets cannot pin
// every op onto one stripe.
var stripeSeed = maphash.MakeSeed()

// store is the striped in-memory LRU behind one Server: keys hash to one
// of N lock stripes, each with its own LRU list and byte budget, so
// concurrent connections stop serializing on a single shard mutex.
type store struct {
	stripes []*stripe
	mask    uint64

	// adm is the overload-control layer (admission.go); nil admits
	// everything. It lives on the store rather than the Server so the
	// protocol fuzzers can drive admission without a TCP listener.
	adm *admitter

	// fault is the injected fault profile (Server.SetFault; nil =
	// healthy): per-request lag/jitter while the request occupies its
	// in-flight slot, error and connection-drop rates — the
	// straggler/fault hook behind the fault tests and the overload
	// benchmark (fault.go).
	fault      atomic.Pointer[faultState]
	faultErrs  atomic.Uint64
	faultDrops atomic.Uint64

	// trace records one server-side span per traced request, stamped
	// with the originating rank/iter from the frame's TraceCtx
	// (ServerOptions.Trace; nil records nothing).
	trace *obs.TraceRing
}

// stripe is one lock-striped sub-shard.
type stripe struct {
	mu       sync.Mutex
	capacity int64
	items    map[string]*entry
	head     *entry // most recently used
	tail     *entry // least recently used
	used     int64

	hits      uint64
	misses    uint64
	evictions uint64
	tooLarge  uint64
}

type entry struct {
	key        string
	val        []byte
	prev, next *entry
}

// pickStripes chooses the stripe count for a capacity: the configured
// cap, halved until every stripe holds at least minStripeBytes. Small
// shards (e.g. tests with double-digit capacities) get one stripe and
// behave exactly like the old single-LRU store.
func pickStripes(capacity int64) int {
	n := defaultStripes
	for n > 1 && capacity/int64(n) < minStripeBytes {
		n /= 2
	}
	return n
}

// newStore builds the striped LRU. stripes <= 0 selects automatically;
// an explicit count is rounded down to a power of two.
func newStore(capacity int64, stripes int) *store {
	if stripes <= 0 {
		stripes = pickStripes(capacity)
	}
	for stripes&(stripes-1) != 0 {
		stripes &= stripes - 1 // round down to a power of two
	}
	st := &store{mask: uint64(stripes - 1)}
	per := capacity / int64(stripes)
	rem := capacity % int64(stripes)
	for i := 0; i < stripes; i++ {
		c := per
		if int64(i) < rem {
			c++
		}
		st.stripes = append(st.stripes, &stripe{
			capacity: c,
			items:    make(map[string]*entry),
		})
	}
	return st
}

// stripeFor hashes a key (as raw bytes, no allocation) to its stripe.
func (st *store) stripeFor(key []byte) *stripe {
	return st.stripes[maphash.Bytes(stripeSeed, key)&st.mask]
}

// get looks a key up and promotes it. The returned value slice is
// immutable (overwrites install a fresh slice), so callers may read it
// after the stripe lock is released.
func (st *store) get(key []byte) ([]byte, bool) {
	sp := st.stripeFor(key)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	e, ok := sp.items[string(key)] // map lookup: no string allocation
	if !ok {
		sp.misses++
		return nil, false
	}
	sp.hits++
	sp.moveToFront(e)
	return e.val, true
}

// put inserts or replaces a value, evicting LRU entries of its stripe to
// fit. Values larger than the stripe budget (shard capacity / stripe
// count, not the full shard capacity) can never be admitted and yield
// statusTooLarge; the refusal is counted in Stats.TooLarge so callers
// that drop Put errors can still observe the degradation.
func (st *store) put(key []byte, val []byte) byte {
	sp := st.stripeFor(key)
	size := int64(len(val))
	if size > sp.capacity {
		sp.mu.Lock()
		sp.tooLarge++
		sp.mu.Unlock()
		return statusTooLarge
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if e, ok := sp.items[string(key)]; ok {
		sp.used += size - int64(len(e.val))
		e.val = val
		sp.moveToFront(e)
	} else {
		e := &entry{key: string(key), val: val}
		sp.items[e.key] = e
		sp.pushFront(e)
		sp.used += size
	}
	for sp.used > sp.capacity && sp.tail != nil {
		sp.evict(sp.tail)
	}
	return statusOK
}

// stats aggregates the counters across stripes.
func (st *store) stats() Stats {
	var total Stats
	for _, sp := range st.stripes {
		sp.mu.Lock()
		total.Items += len(sp.items)
		total.UsedBytes += sp.used
		total.Hits += sp.hits
		total.Misses += sp.misses
		total.Evictions += sp.evictions
		total.TooLarge += sp.tooLarge
		sp.mu.Unlock()
	}
	total.ShedDeadline, total.ShedQuota, total.ShedQueue = st.adm.sheds()
	return total
}

func (sp *stripe) evict(e *entry) {
	sp.remove(e)
	delete(sp.items, e.key)
	sp.used -= int64(len(e.val))
	sp.evictions++
}

// Intrusive doubly-linked LRU list, one per stripe.
func (sp *stripe) pushFront(e *entry) {
	e.prev = nil
	e.next = sp.head
	if sp.head != nil {
		sp.head.prev = e
	}
	sp.head = e
	if sp.tail == nil {
		sp.tail = e
	}
}

func (sp *stripe) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sp.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sp.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sp *stripe) moveToFront(e *entry) {
	if sp.head == e {
		return
	}
	sp.remove(e)
	sp.pushFront(e)
}

// ---- protocol handler ----
//
// The handler lives on the store (not the Server) so the fuzzer can
// drive it over in-memory readers without a TCP listener.

// handleFrame serves one request frame. Responses are buffered in w; the
// serve loop flushes when no further request bytes are pending. A traced
// request's span lands on track tid, stamped with the originating
// rank/iter.
//
// Request frame (big-endian lengths; flag bits in proto.go):
//
//	magic(1)=0xA5 flags(1) op(1) reqID(u32)
//	  [budgetMicros(u32) if flagDeadline] [traceCtx(u64) if flagTrace] body
//	  single ops : keyLen(u32) key valLen(u32) val
//	  opMultiGet : count(u32) { keyLen(u32) key }*
//	  opMultiPut : count(u32) { keyLen(u32) key valLen(u32) val }*
//
// Response frame:
//
//	op(1) reqID(u32) status(1) body
//	  single ops : valLen(u32) val
//	  opMultiGet : count(u32) { status(1) valLen(u32) val }*
//	  opMultiPut : count(u32) { status(1) }*
//
// A shed (statusRetryLater) or fault-injected (statusError) request is
// answered with an empty body (valLen 0, or count 0 for batch ops): the
// server drained the request body to preserve framing but did none of
// the work. Any other magic, an unknown flag bit or an unknown op loses
// the frame boundary and drops the connection.
func (st *store) handleFrame(r *bufio.Reader, w *bufio.Writer, q *connQuota, tid int64) error {
	magic, err := r.ReadByte()
	if err != nil {
		return err
	}
	flags, err := r.ReadByte()
	if err != nil {
		return err
	}
	if magic != frameMagic || flags&^knownFlags != 0 {
		return errFrame
	}
	op, err := r.ReadByte()
	if err != nil {
		return err
	}
	id, err := readU32(r)
	if err != nil {
		return err
	}
	var expiry time.Time
	if flags&flagDeadline != 0 {
		budget, err := readU32(r)
		if err != nil {
			return err
		}
		if budget > 0 {
			expiry = time.Now().Add(time.Duration(budget) * time.Microsecond)
		}
	}
	if flags&flagTrace != 0 {
		raw, err := readU64(r)
		if err != nil {
			return err
		}
		if tctx := obs.TraceCtx(raw); tctx.Valid() && st.trace != nil {
			start := time.Now()
			defer func() {
				st.trace.SpanArgs(opTraceName(op), "kv", tid, start, time.Since(start),
					"rank", int64(tctx.Rank()), "iter", tctx.Iter())
			}()
		}
	}
	count := uint32(1) // single ops carry one key/value pair
	switch op {
	case opStats:
		// Exempt from admission and faults, so monitoring survives
		// overload and chaos; the request body is ignored.
		if err := drainBody(r, op, count); err != nil {
			return err
		}
		buf := getBuf(statsWireLen)
		encodeStats(buf.b, st.stats())
		writeResponse(w, op, id, statusOK, buf.b)
		putBuf(buf)
		return nil
	case opGet, opPut:
	case opMultiGet, opMultiPut:
		if count, err = readLen(r, maxBatchLen); err != nil {
			return err
		}
	default:
		return errFrame
	}
	status := statusOK
	if st.adm != nil {
		if st.adm.admit(q, expiry, time.Now()) != admitOK {
			status = statusRetryLater
		} else {
			defer st.adm.release()
		}
	}
	if status == statusOK {
		switch st.applyFault(op) {
		case faultDrop:
			return errFrame // sever: the crashed-shard failure mode
		case faultErr:
			status = statusError
		}
	}
	if status != statusOK {
		if err := drainBody(r, op, count); err != nil {
			return err
		}
		writeEmpty(w, op, id, status)
		return nil
	}
	switch op {
	case opMultiGet:
		// Stream the response while decoding: each key is looked up and
		// its entry written as soon as it is read, so the batch needs no
		// materialized request and only one key buffer of scratch.
		_ = w.WriteByte(op)
		writeU32(w, id)
		_ = w.WriteByte(statusOK)
		writeU32(w, count)
		for i := uint32(0); i < count; i++ {
			key, err := readChunk(r, maxKeyLen)
			if err != nil {
				return err
			}
			if v, ok := st.get(key.b); ok {
				_ = w.WriteByte(statusOK)
				writeU32(w, uint32(len(v)))
				_, _ = w.Write(v)
			} else {
				_ = w.WriteByte(statusNotFound)
				writeU32(w, 0)
			}
			putBuf(key)
		}
	case opMultiPut:
		statuses := getBuf(int(count))
		defer putBuf(statuses)
		for i := uint32(0); i < count; i++ {
			key, val, err := readKV(r)
			if err != nil {
				return err
			}
			statuses.b[i] = st.put(key.b, val)
			putBuf(key)
		}
		_ = w.WriteByte(op)
		writeU32(w, id)
		_ = w.WriteByte(statusOK)
		writeU32(w, count)
		_, _ = w.Write(statuses.b)
	default:
		key, val, err := readKV(r)
		if err != nil {
			return err
		}
		defer putBuf(key)
		switch op {
		case opGet:
			if v, ok := st.get(key.b); ok {
				writeResponse(w, op, id, statusOK, v)
			} else {
				writeResponse(w, op, id, statusNotFound, nil)
			}
		case opPut:
			writeResponse(w, op, id, st.put(key.b, val), nil)
		}
	}
	return nil
}

// opTraceName maps a wire op to the constant span name recorded for a
// traced request. Constants, so recording stays allocation-free.
func opTraceName(op byte) string {
	switch op {
	case opGet:
		return "kv.get"
	case opPut:
		return "kv.put"
	case opMultiGet:
		return "kv.multiget"
	case opMultiPut:
		return "kv.multiput"
	default:
		return "kv.op"
	}
}

// writeEmpty writes a response carrying only a status — the frame of a
// shed (statusRetryLater) or fault-injected (statusError) request. The
// zero u32 is a single op's value length or a batch op's count.
func writeEmpty(w *bufio.Writer, op byte, id uint32, status byte) {
	_ = w.WriteByte(op)
	writeU32(w, id)
	_ = w.WriteByte(status)
	writeU32(w, 0)
}

// drainBody consumes the body of a request that will not be served
// (shed, fault-injected, or an opStats whose key is ignored) without
// materializing it: count keys, each followed by its value except in an
// opMultiGet. count is 1 for single ops.
func drainBody(r *bufio.Reader, op byte, count uint32) error {
	for i := uint32(0); i < count; i++ {
		if err := drainChunk(r, maxKeyLen); err != nil {
			return err
		}
		if op != opMultiGet {
			if err := drainChunk(r, maxValLen); err != nil {
				return err
			}
		}
	}
	return nil
}

// drainChunk consumes one length-prefixed blob without materializing it.
func drainChunk(r *bufio.Reader, max uint32) error {
	n, err := readLen(r, max)
	if err != nil {
		return err
	}
	_, err = r.Discard(int(n))
	return err
}

// readChunk reads one length-prefixed blob into a pooled buffer.
func readChunk(r *bufio.Reader, max uint32) (*pbuf, error) {
	n, err := readLen(r, max)
	if err != nil {
		return nil, err
	}
	buf := getBuf(int(n))
	if _, err := io.ReadFull(r, buf.b); err != nil {
		putBuf(buf)
		return nil, err
	}
	return buf, nil
}

// readKV reads the key+value body shared by every single-op request.
// The key comes from the buffer pool (caller returns it via putBuf); the
// value is heap-allocated because Put hands it to the store for keeps.
func readKV(r *bufio.Reader) (key *pbuf, val []byte, err error) {
	key, err = readChunk(r, maxKeyLen)
	if err != nil {
		return nil, nil, err
	}
	valLen, err := readLen(r, maxValLen)
	if err != nil {
		putBuf(key)
		return nil, nil, err
	}
	val = make([]byte, valLen)
	if _, err := io.ReadFull(r, val); err != nil {
		putBuf(key)
		return nil, nil, err
	}
	return key, val, nil
}

func encodeStats(buf []byte, s Stats) {
	binary.BigEndian.PutUint64(buf[0:], uint64(s.Items))
	binary.BigEndian.PutUint64(buf[8:], uint64(s.UsedBytes))
	binary.BigEndian.PutUint64(buf[16:], s.Hits)
	binary.BigEndian.PutUint64(buf[24:], s.Misses)
	binary.BigEndian.PutUint64(buf[32:], s.Evictions)
	binary.BigEndian.PutUint64(buf[40:], s.TooLarge)
	binary.BigEndian.PutUint64(buf[48:], s.ShedDeadline)
	binary.BigEndian.PutUint64(buf[56:], s.ShedQuota)
	binary.BigEndian.PutUint64(buf[64:], s.ShedQueue)
}

func writeResponse(w *bufio.Writer, op byte, id uint32, status byte, val []byte) {
	// bufio.Writer errors are sticky; the serve loop's Flush surfaces the
	// first one and drops the connection.
	_ = w.WriteByte(op)
	writeU32(w, id)
	_ = w.WriteByte(status)
	writeU32(w, uint32(len(val)))
	_, _ = w.Write(val)
}
