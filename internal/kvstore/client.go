package kvstore

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrClientClosed is returned for ops issued after Close.
var ErrClientClosed = errors.New("kvstore: client closed")

// writeQueueDepth bounds each connection's in-flight request queue.
const writeQueueDepth = 512

// Client speaks the pipelined protocol to one shard: every request
// carries an ID, a per-connection writer goroutine coalesces frames
// into large writes, and a reader goroutine dispatches responses to
// their waiters — so one connection sustains many concurrent ops
// instead of one per round trip. Safe for concurrent use.
//
// The connections form two lanes. Get, Put and Stats ride the point
// lane; MultiGet and MultiPut ride the batch lane. The server
// answers one connection's frames one at a time and the reader drains
// them in order, so a Get sharing a connection with a prefetch window's
// MultiGet would wait out the whole batch (DESIGN.md §8).
type Client struct {
	addr         string
	window       int
	point, batch lane

	// ins is the optional observability hookup (SetInstruments); an
	// atomic pointer so it can be attached while ops are in flight. The
	// un-instrumented fast path costs one pointer load per op.
	ins atomic.Pointer[ClientInstruments]
}

// lane is one class of traffic's connections to the shard, picked
// round-robin and redialed when dead; each connection carries its own
// backpressure window.
type lane struct {
	mu    sync.Mutex
	conns []*pipeConn
	rr    atomic.Uint32
	shut  bool
}

// lanes lists the client's lanes, point first.
func (cl *Client) lanes() [2]*lane { return [2]*lane{&cl.point, &cl.batch} }

// SetInstruments attaches (or with nil detaches) per-op latency and
// counter instruments. Safe to call concurrently with ops.
func (cl *Client) SetInstruments(ins *ClientInstruments) { cl.ins.Store(ins) }

// opStart begins timing one op: bumps the in-flight gauge and returns
// the histogram plus start time. A nil return (no instruments, or
// metrics disabled) means opDone must be skipped.
func (cl *Client) opStart(op byte) (*obs.Histogram, *obs.Gauge, time.Time) {
	ins := cl.ins.Load()
	if ins == nil {
		return nil, nil, time.Time{}
	}
	h := ins.opSeconds(op)
	if !h.On() {
		return nil, nil, time.Time{}
	}
	ins.InFlight.Add(1)
	return h, ins.InFlight, time.Now()
}

// opDone finishes timing started by opStart.
func opDone(h *obs.Histogram, g *obs.Gauge, start time.Time) {
	g.Add(-1)
	h.Observe(time.Since(start).Seconds())
}

// NewClient connects to a shard with the given number of multiplexed
// connections per lane (a handful is plenty; each carries hundreds of
// in-flight ops).
func NewClient(addr string, conns int) (*Client, error) {
	return NewClientOptions(addr, ClientOptions{Conns: conns})
}

// ClientOptions configures the pipelined client beyond its connection
// count.
type ClientOptions struct {
	// Conns is the number of multiplexed connections per lane (min 1):
	// the client dials Conns for its point ops and Conns more for its
	// batch ops.
	Conns int
	// Window caps requests in flight per connection — registered but not
	// yet completed. An op arriving at a full window blocks (respecting
	// its context), which is the client half of the kv tier's
	// backpressure: callers slow down instead of piling unbounded work
	// onto an overloaded shard. 0 defaults to writeQueueDepth.
	Window int
}

// NewClientOptions connects to a shard with explicit options.
func NewClientOptions(addr string, opts ClientOptions) (*Client, error) {
	if opts.Conns < 1 {
		opts.Conns = 1
	}
	if opts.Window <= 0 {
		opts.Window = writeQueueDepth
	}
	cl := &Client{addr: addr, window: opts.Window}
	for _, l := range cl.lanes() {
		for i := 0; i < opts.Conns; i++ {
			p, err := dialPipe(addr, opts.Window)
			if err != nil {
				cl.Close()
				return nil, err
			}
			l.conns = append(l.conns, p)
		}
	}
	return cl, nil
}

// conn picks one of lane l's connections round-robin, transparently
// replacing dead ones.
func (cl *Client) conn(l *lane) (*pipeConn, error) {
	l.mu.Lock()
	if l.shut {
		l.mu.Unlock()
		return nil, ErrClientClosed
	}
	// Unsigned modulo before the int conversion: on 32-bit platforms a
	// wrapped counter would otherwise go negative and panic the index.
	i := int(l.rr.Add(1) % uint32(len(l.conns)))
	p := l.conns[i]
	l.mu.Unlock()
	if !p.dead.Load() {
		return p, nil
	}
	return cl.replace(l, i, p)
}

// replace redials lane l's slot i if it still holds the dead connection
// old.
func (cl *Client) replace(l *lane, i int, old *pipeConn) (*pipeConn, error) {
	fresh, err := dialPipe(cl.addr, cl.window)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	if l.shut {
		l.mu.Unlock()
		fresh.shutdown(ErrClientClosed)
		return nil, ErrClientClosed
	}
	cur := l.conns[i]
	if cur != old && !cur.dead.Load() {
		// Someone else already replaced the slot; use theirs.
		l.mu.Unlock()
		fresh.shutdown(ErrClientClosed)
		return cur, nil
	}
	l.conns[i] = fresh
	l.mu.Unlock()
	if ins := cl.ins.Load(); ins != nil {
		ins.Redials.Inc()
	}
	old.shutdown(errors.New("kvstore: connection replaced"))
	return fresh, nil
}

// Close tears down every connection of both lanes; in-flight ops fail
// with ErrClientClosed.
func (cl *Client) Close() {
	for _, l := range cl.lanes() {
		l.close()
	}
}

func (l *lane) close() {
	l.mu.Lock()
	l.shut = true
	conns := l.conns
	l.mu.Unlock()
	for _, p := range conns {
		p.shutdown(ErrClientClosed)
	}
}

// call is one in-flight request/response pair. Instances are pooled
// under a strict ownership rule: a call may be recycled (putCall) only
// after a successful round trip, because the response proves the writer
// goroutine finished serializing the request (see call.wrote). A call
// whose round trip errored may still be queued for — or held by — the
// writer, so error paths drop it for the GC instead of recycling it.
type call struct {
	request
	id uint32
	// Response fields.
	status   byte
	out      []byte
	statuses []byte   // per-key statuses (opMultiPut)
	outs     [][]byte // per-key values (opMultiGet), nil = not found
	err      error
	done     chan *call
	// expiry is the op's context deadline; non-zero sets flagDeadline so
	// the server can shed the request once its budget is gone. The
	// remaining budget is computed at serialization time, after any
	// window/queue wait on the client.
	expiry time.Time
	// tctx is the op's trace context; valid, it sets flagTrace so the
	// server-side span carries the originating rank/iter.
	tctx obs.TraceCtx
	// window, when non-nil, holds one slot of the connection's
	// backpressure semaphore; whoever completes the call returns it
	// (completeCall), so the window tracks true in-flight work even when
	// the original caller abandoned the op on context cancellation.
	window chan struct{}
	// skipped marks a call withdrawn by abandon() before serialization;
	// the writer discards it instead of framing it. Guarded by the
	// owning pipeConn's mu.
	skipped bool
	// wrote is released by the writer goroutine once the request frame
	// is fully serialized and acquired by the reader before it completes
	// the call, ordering the writer's reads of the request fields before
	// any reuse of the call (or the caller's key/value buffers).
	wrote atomic.Bool
}

// request is one op as its caller states it.
type request struct {
	op   byte
	key  string
	val  []byte
	keys []string // opMultiGet, opMultiPut
	vals [][]byte // opMultiPut
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan *call, 1)} }}

func getCall(req request) *call {
	c := callPool.Get().(*call)
	c.request = req
	return c
}

func putCall(c *call) {
	select {
	case <-c.done: // drain a stray completion, never carry it to reuse
	default:
	}
	// Field-by-field: a struct assignment would copy the atomic.
	c.request, c.id = request{}, 0
	c.status, c.out, c.statuses, c.outs = 0, nil, nil, nil
	c.err = nil
	c.expiry = time.Time{}
	c.tctx = 0
	c.window, c.skipped = nil, false
	c.wrote.Store(false)
	callPool.Put(c)
}

// completeCall wakes c's waiter and returns its backpressure window
// slot. The slot is captured before the done send: a successful waiter
// may recycle c the instant it wakes, so c must not be touched after.
func completeCall(c *call) {
	w := c.window
	c.window = nil
	c.done <- c
	if w != nil {
		<-w
	}
}

// releaseWindow returns c's window slot when no completer ever will
// (the call was refused or withdrawn before it became in-flight).
func releaseWindow(c *call) {
	if w := c.window; w != nil {
		c.window = nil
		<-w
	}
}

// pipeConn is one multiplexed connection: a writer goroutine drains wq
// and coalesces frames, a reader goroutine dispatches responses to the
// pending map by request ID.
type pipeConn struct {
	c    net.Conn
	wq   chan *call
	stop chan struct{}
	// window is the connection's backpressure semaphore: one slot per
	// registered-but-uncompleted call (see call.window).
	window chan struct{}

	stopOnce sync.Once
	dead     atomic.Bool

	mu      sync.Mutex
	err     error
	nextID  uint32
	pending map[uint32]*call
	// held is the call the writer goroutine is serializing right now.
	// While a call is held, only the writer may complete it (fail and
	// the reader leave it alone), so nothing can wake its caller — and
	// free it to reuse its key/value buffers — mid-serialization.
	held *call

	wg sync.WaitGroup
}

func dialPipe(addr string, window int) (*pipeConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore: dial %s: %w", addr, err)
	}
	p := newPipeConn(c, window)
	p.wg.Add(2)
	go p.writeLoop()
	go p.readLoop()
	return p, nil
}

// newPipeConn wraps an open connection; the caller starts the loops.
func newPipeConn(c net.Conn, window int) *pipeConn {
	if window <= 0 {
		window = writeQueueDepth
	}
	return &pipeConn{
		c:       c,
		wq:      make(chan *call, writeQueueDepth),
		stop:    make(chan struct{}),
		window:  make(chan struct{}, window),
		pending: make(map[uint32]*call),
	}
}

// shutdown fails the connection (idempotent) and waits for its
// goroutines.
func (p *pipeConn) shutdown(err error) {
	p.fail(err)
	p.wg.Wait()
}

// fail marks the connection dead, closes the socket (unblocking both
// loops) and completes every pending call with err — except the call
// the writer is serializing, which the writer itself completes.
func (p *pipeConn) fail(err error) {
	p.stopOnce.Do(func() {
		p.dead.Store(true)
		p.mu.Lock()
		p.err = err
		p.mu.Unlock()
		close(p.stop)
		_ = p.c.Close() // unblocks the reader; its error is the close itself
	})
	// Whoever gets here drains whatever is pending at this moment —
	// except the call the writer currently holds, which the writer
	// completes itself after the frame is written (endWrite). Calls
	// registered later see p.err at registration and never enqueue;
	// calls queued but never written are completed here and skipped by
	// the writer (beginWrite).
	p.mu.Lock()
	var drained []*call
	for id, c := range p.pending {
		if c == p.held {
			continue
		}
		delete(p.pending, id)
		drained = append(drained, c)
	}
	failErr := p.err
	p.mu.Unlock()
	for _, c := range drained {
		c.err = failErr
		completeCall(c)
	}
}

// register assigns a request ID and parks the call in the pending map.
func (p *pipeConn) register(c *call) error {
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		return err
	}
	c.id = p.nextID
	p.nextID++
	p.pending[c.id] = c
	p.mu.Unlock()
	return nil
}

// take removes a pending call; nil when already completed elsewhere.
func (p *pipeConn) take(id uint32) *call {
	p.mu.Lock()
	c := p.pending[id]
	delete(p.pending, id)
	p.mu.Unlock()
	return c
}

// failCall completes one call with err unless someone else already did.
func (p *pipeConn) failCall(c *call, err error) {
	if got := p.take(c.id); got != nil {
		got.err = err
		completeCall(got)
	}
}

// failDesync handles a response that was matched to a pending call but
// contradicts it (wrong op, or a frame the writer never finished
// writing): it drops the connection and completes the taken call so its
// waiter cannot hang. The connection is failed *first* so the writer
// refuses to start serializing c after its waiter wakes; if the writer
// already holds c, it is handed back to pending and the writer
// completes it in endWrite once the frame is out.
func (p *pipeConn) failDesync(c *call, err error) {
	p.fail(err)
	p.mu.Lock()
	if p.held == c {
		p.pending[c.id] = c
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.err = err
	completeCall(c)
}

// abandon withdraws a context-cancelled call before serialization. On
// success the call was never written — it is removed from pending (its
// ID will never appear on the wire, so a late response cannot desync
// the connection), marked for the writer to discard, and its window
// slot is returned here. On failure the writer already claimed (or
// finished) the frame; the eventual response or connection failure
// completes the call and returns the slot.
func (p *pipeConn) abandon(c *call) bool {
	p.mu.Lock()
	if p.pending[c.id] != c || p.held == c || c.wrote.Load() {
		p.mu.Unlock()
		return false
	}
	delete(p.pending, c.id)
	c.skipped = true
	p.mu.Unlock()
	releaseWindow(c)
	return true
}

// roundTrip runs one pipelined op to completion, bounded by ctx. A
// cancelled op returns ctx.Err() immediately; if its frame could not be
// withdrawn before serialization the request still reaches the server,
// whose response completes the (now abandoned, never recycled) call.
// Callers must treat a mutable value buffer handed to a cancelled Put
// as borrowed until the op would have completed.
func (p *pipeConn) roundTrip(ctx context.Context, c *call) error {
	// Backpressure: one window slot per in-flight call, held from here
	// until completion. A deadlined call spends at most 3/4 of its
	// remaining budget waiting here, reserving the rest for wire and
	// server time — without the reservation, a FIFO window under
	// sustained overload self-selects waiters that acquire a slot just
	// before their deadline and whose frames can only buy the server
	// zombie work (see DESIGN.md §11).
	var windowTimeout <-chan time.Time
	if !c.expiry.IsZero() {
		d := time.Until(c.expiry)
		if d <= 0 {
			return context.DeadlineExceeded
		}
		timer := time.NewTimer(d - d/4)
		defer timer.Stop()
		windowTimeout = timer.C
	}
	select {
	case p.window <- struct{}{}:
		c.window = p.window
	case <-p.stop:
		return p.connErr()
	case <-windowTimeout:
		return context.DeadlineExceeded
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := p.register(c); err != nil {
		releaseWindow(c)
		return err
	}
	select {
	case p.wq <- c:
	case <-p.stop:
		p.failCall(c, ErrClientClosed)
	case <-ctx.Done():
		// Registered but never queued: the withdrawal cannot lose a race
		// with the writer, though fail() may have completed c already.
		if !p.abandon(c) {
			<-c.done
		}
		return ctx.Err()
	}
	select {
	case <-c.done:
		return c.err
	case <-ctx.Done():
		if !p.abandon(c) {
			// In flight (or just completed): the completer owns cleanup.
			select {
			case <-c.done:
				return c.err
			default:
			}
		}
		return ctx.Err()
	}
}

// writeLoop serializes queued requests onto the socket, flushing only
// when the queue momentarily drains — a burst of N ops from concurrent
// callers coalesces into one write syscall.
func (p *pipeConn) writeLoop() {
	defer p.wg.Done()
	w := bufio.NewWriterSize(p.c, connBufSize)
	for {
		select {
		case <-p.stop:
			p.drainQueue()
			return
		case c := <-p.wq:
			// A discarded call (withdrawn, refused, or out of budget) still
			// falls through to the flush check: it may be the last of a
			// burst whose earlier frames sit in the buffer.
			if p.beginWrite(c) && !p.dropExpired(c) {
				writeRequest(w, c)
				p.endWrite(c)
			}
			if len(p.wq) == 0 {
				// The enqueue that woke this loop typically readied us
				// before the caller's siblings got to run; yield once so
				// every runnable caller enqueues, then flush the whole
				// burst as one write.
				runtime.Gosched()
			}
			if len(p.wq) == 0 {
				if err := w.Flush(); err != nil {
					p.fail(err)
				}
			}
		}
	}
}

// beginWrite claims c for serialization, so that until endWrite
// releases the claim no one else completes it. A call withdrawn by
// abandon() is discarded unserialized (its waiter already returned and
// released the window slot). On a failed connection it refuses the
// claim: c must not be serialized, and is completed here unless fail()
// already did (c gone from pending).
func (p *pipeConn) beginWrite(c *call) bool {
	p.mu.Lock()
	if c.skipped {
		p.mu.Unlock()
		return false
	}
	err := p.err
	ours := false
	if err != nil {
		if ours = p.pending[c.id] == c; ours {
			delete(p.pending, c.id)
		}
	} else {
		p.held = c
	}
	p.mu.Unlock()
	if err == nil {
		return true
	}
	if ours {
		c.err = err
		completeCall(c)
	}
	return false
}

// dropExpired discards a writer-claimed call whose deadline budget is
// already spent at serialization time: the frame could only buy the
// server zombie work (a response nobody is waiting for), so the call
// is completed locally with the context error instead of written.
// Exclusivity holds because beginWrite set p.held: fail() skips held
// calls, abandon() refuses them, and the reader only completes calls
// after endWrite publishes wrote.
func (p *pipeConn) dropExpired(c *call) bool {
	if c.expiry.IsZero() || time.Now().Before(c.expiry) {
		return false
	}
	p.mu.Lock()
	delete(p.pending, c.id)
	p.held = nil
	p.mu.Unlock()
	c.err = context.DeadlineExceeded
	completeCall(c)
	return true
}

// endWrite publishes that c's frame is fully serialized (the release
// half of call.wrote — the reader acquires it before completing c) and
// drops the writer's claim. If the connection failed mid-write, fail()
// skipped c because it was held, so it is completed here.
func (p *pipeConn) endWrite(c *call) {
	// Capture the ID before publishing: once wrote is set a fast
	// response can complete c and recycle it under us.
	id := c.id
	c.wrote.Store(true)
	p.mu.Lock()
	p.held = nil
	var err error
	if p.err != nil && p.pending[id] == c {
		delete(p.pending, id)
		err = p.err
	}
	p.mu.Unlock()
	if err != nil {
		c.err = err
		completeCall(c)
	}
}

// drainQueue fails whatever was queued but never written.
func (p *pipeConn) drainQueue() {
	for {
		select {
		case c := <-p.wq:
			p.failCall(c, p.connErr())
		default:
			return
		}
	}
}

func (p *pipeConn) connErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	return ErrClientClosed
}

// writeRequest encodes one request frame (layout in store.go). A call
// with a deadline sets flagDeadline and carries its remaining budget in
// microseconds — computed here, at serialization time, so client-side
// window and queue waits have already been charged against it. An
// already-expired budget is clamped to 1µs: the frame still goes out
// (withdrawing it would desync the stream) and the server sheds it at
// its cheapest gate. A call with a trace context sets flagTrace and
// carries the packed rank/epoch/iter.
//
//lint:hotpath one frame encode per op; the write loop must not allocate between pooled calls
func writeRequest(w *bufio.Writer, c *call) {
	var flags byte
	if !c.expiry.IsZero() {
		flags |= flagDeadline
	}
	if c.tctx.Valid() {
		flags |= flagTrace
	}
	// bufio errors are sticky; the writeLoop's Flush surfaces the first.
	_ = w.WriteByte(frameMagic)
	_ = w.WriteByte(flags)
	_ = w.WriteByte(c.op)
	writeU32(w, c.id)
	if flags&flagDeadline != 0 {
		budget := int64(time.Until(c.expiry) / time.Microsecond)
		if budget < 1 {
			budget = 1
		}
		if budget > math.MaxUint32 {
			budget = math.MaxUint32
		}
		writeU32(w, uint32(budget))
	}
	if flags&flagTrace != 0 {
		writeU64(w, uint64(c.tctx))
	}
	switch c.op {
	case opMultiGet:
		writeU32(w, uint32(len(c.keys)))
		for _, k := range c.keys {
			writeU32(w, uint32(len(k)))
			_, _ = w.WriteString(k)
		}
	case opMultiPut:
		writeU32(w, uint32(len(c.keys)))
		for i, k := range c.keys {
			writeU32(w, uint32(len(k)))
			_, _ = w.WriteString(k)
			writeU32(w, uint32(len(c.vals[i])))
			_, _ = w.Write(c.vals[i])
		}
	default:
		writeU32(w, uint32(len(c.key)))
		_, _ = w.WriteString(c.key)
		writeU32(w, uint32(len(c.val)))
		_, _ = w.Write(c.val)
	}
}

// readLoop parses response frames and hands each to its waiter.
func (p *pipeConn) readLoop() {
	defer p.wg.Done()
	r := bufio.NewReaderSize(p.c, connBufSize)
	for {
		op, err := r.ReadByte()
		if err != nil {
			p.fail(err)
			return
		}
		id, err := readU32(r)
		if err != nil {
			p.fail(err)
			return
		}
		status, err := r.ReadByte()
		if err != nil {
			p.fail(err)
			return
		}
		c := p.take(id)
		if c == nil {
			p.fail(fmt.Errorf("kvstore: response for unknown request %d (op %d)", id, op))
			return
		}
		// The acquire pairs with the writer's release in endWrite: after
		// it, the writer's reads of c's request fields happened before
		// this point, so completing c — and the caller then recycling it
		// — cannot race the serialization. A response whose frame the
		// writer never finished, or whose op does not match, is frame
		// desync from a corrupt peer.
		if !c.wrote.Load() || c.op != op {
			p.failDesync(c, fmt.Errorf("kvstore: mismatched response for request %d (op %d)", id, op))
			return
		}
		c.status = status
		if err := readResponseBody(r, op, c); err != nil {
			c.err = err
			completeCall(c)
			p.fail(err)
			return
		}
		completeCall(c)
	}
}

// readResponseBody parses a response frame's op-specific body into c. The
// only allocations are the response values themselves (they escape to
// the caller, so pooled scratch cannot hold them) and cold
// protocol-error formatting; the framing reads are allocation-free.
//
//lint:hotpath one frame decode per op; anything beyond the escaping response values is per-op garbage
func readResponseBody(r *bufio.Reader, op byte, c *call) error {
	switch op {
	case opMultiGet:
		count, err := readLen(r, maxBatchLen)
		if err != nil {
			return err
		}
		if int(count) != len(c.keys) {
			// A shed or fault-injected batch legitimately answers with
			// count 0 and a non-OK status: the server drained the request
			// and did none of the work.
			if count == 0 && c.status != statusOK {
				return nil
			}
			//lint:allow hotpath cold protocol-error path; the connection is dropped right after
			return fmt.Errorf("kvstore: MultiGet response has %d entries, want %d", count, len(c.keys))
		}
		//lint:allow hotpath response values escape to the caller and cannot come from the pool
		c.outs = make([][]byte, count)
		for i := uint32(0); i < count; i++ {
			st, err := r.ReadByte()
			if err != nil {
				return err
			}
			n, err := readLen(r, maxValLen)
			if err != nil {
				return err
			}
			//lint:allow hotpath response values escape to the caller and cannot come from the pool
			v := make([]byte, n)
			if _, err := io.ReadFull(r, v); err != nil {
				return err
			}
			if st == statusOK {
				c.outs[i] = v
			}
		}
		return nil
	case opMultiPut:
		count, err := readLen(r, maxBatchLen)
		if err != nil {
			return err
		}
		if int(count) != len(c.keys) {
			// count 0 on a shed or fault-injected batch: see opMultiGet.
			if count == 0 && c.status != statusOK {
				return nil
			}
			//lint:allow hotpath cold protocol-error path; the connection is dropped right after
			return fmt.Errorf("kvstore: MultiPut response has %d entries, want %d", count, len(c.keys))
		}
		//lint:allow hotpath per-key status vector escapes to the caller and cannot come from the pool
		c.statuses = make([]byte, count)
		if _, err := io.ReadFull(r, c.statuses); err != nil {
			return err
		}
		return nil
	default:
		n, err := readLen(r, maxValLen)
		if err != nil {
			return err
		}
		//lint:allow hotpath response values escape to the caller and cannot come from the pool
		out := make([]byte, n)
		if _, err := io.ReadFull(r, out); err != nil {
			return err
		}
		c.out = out
		return nil
	}
}

// Retry policy for every op: jittered exponential backoff on
// statusRetryLater, bounded by the op's context and by retryAttempts.
const (
	retryBase     = time.Millisecond
	retryMax      = 50 * time.Millisecond
	retryAttempts = 8
)

// retryDelay is the backoff before retry number attempt (0-based):
// exponential from retryBase, capped at retryMax, uniformly jittered
// over [d/2, d) so synchronized clients shed by the same overload spike
// do not stampede back in lockstep.
func retryDelay(attempt int) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryMax; i++ {
		d *= 2
	}
	if d > retryMax {
		d = retryMax
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)))
}

// sleepCtx sleeps d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do is the one path every op takes: it times the op when instruments
// are attached (inline rather than deferred — this is the per-sample
// hot path and a defer closure would allocate) around send. The
// returned call holds the response; the caller reads it and recycles it
// with putCall.
func (cl *Client) do(ctx context.Context, req request) (*call, error) {
	h, g, start := cl.opStart(req.op)
	c, err := cl.send(ctx, req)
	if h != nil {
		opDone(h, g, start)
	}
	return c, err
}

// send runs req on its lane, carrying ctx's deadline (flagDeadline lets
// the server shed the request once its budget is spent) and ctx's trace
// context (flagTrace stamps the server's span with the originating
// rank/iter), and absorbs server sheds with retryDelay backoff.
func (cl *Client) send(ctx context.Context, req request) (*call, error) {
	l := &cl.point
	if req.op == opMultiGet || req.op == opMultiPut {
		l = &cl.batch
	}
	expiry, _ := ctx.Deadline()
	tctx := obs.TraceFrom(ctx)
	for attempt := 0; ; attempt++ {
		p, err := cl.conn(l)
		if err != nil {
			return nil, err
		}
		c := getCall(req)
		c.expiry, c.tctx = expiry, tctx
		if err := p.roundTrip(ctx, c); err != nil {
			// Failed calls may still be referenced by the writer goroutine;
			// drop them for the GC rather than recycling (see call).
			return nil, err
		}
		if c.status != statusRetryLater || attempt == retryAttempts {
			return c, nil
		}
		putCall(c)
		if ins := cl.ins.Load(); ins != nil {
			ins.RetryLater.Inc()
		}
		if err := sleepCtx(ctx, retryDelay(attempt)); err != nil {
			return nil, err
		}
	}
}

// statusErr maps a refusal status to the error of the op described by
// what (e.g. `Get("k")`).
func statusErr(status byte, what string) error {
	switch status {
	case statusTooLarge:
		return fmt.Errorf("kvstore: %s: %w", what, ErrTooLarge)
	case statusRetryLater:
		return fmt.Errorf("kvstore: %s: %w", what, ErrRetryLater)
	default:
		return fmt.Errorf("kvstore: server error on %s", what)
	}
}

// putErr maps one stored key's status to its error, counting a
// too-large refusal on the client's instruments.
func (cl *Client) putErr(status byte, key string) error {
	if status == statusOK {
		return nil
	}
	if status == statusTooLarge {
		if ins := cl.ins.Load(); ins != nil {
			ins.TooLarge.Inc()
		}
	}
	return statusErr(status, fmt.Sprintf("Put(%q)", key))
}

// Every op below takes a context: its cancellation ends the op, its
// deadline travels with the frame, its trace (obs.WithTrace) stamps the
// server's span, and a server shed is retried until ctx ends or
// retryAttempts run out. context.Background() sends a plain frame that
// still retries.

// Get fetches a value; found=false when the key is absent.
func (cl *Client) Get(ctx context.Context, key string) ([]byte, bool, error) {
	c, err := cl.do(ctx, request{op: opGet, key: key})
	if err != nil {
		return nil, false, err
	}
	status, out := c.status, c.out
	putCall(c)
	switch status {
	case statusOK:
		return out, true, nil
	case statusNotFound:
		return nil, false, nil
	default:
		return nil, false, statusErr(status, fmt.Sprintf("Get(%q)", key))
	}
}

// Put stores a value; ErrTooLarge when the shard can never admit it.
// The value buffer is borrowed until the op completes: after a
// cancellation it may still be serialized onto the wire, so callers
// must not mutate it on the error path.
func (cl *Client) Put(ctx context.Context, key string, val []byte) error {
	c, err := cl.do(ctx, request{op: opPut, key: key, val: val})
	if err != nil {
		return err
	}
	status := c.status
	putCall(c)
	return cl.putErr(status, key)
}

// Stats fetches the shard's counters. The server never sheds it.
func (cl *Client) Stats(ctx context.Context) (Stats, error) {
	c, err := cl.do(ctx, request{op: opStats})
	if err != nil {
		return Stats{}, err
	}
	status, out := c.status, c.out
	putCall(c)
	if status != statusOK || len(out) != statsWireLen {
		return Stats{}, fmt.Errorf("kvstore: bad stats response")
	}
	return decodeStats(out), nil
}

func decodeStats(out []byte) Stats {
	return Stats{
		Items:        int(binary.BigEndian.Uint64(out[0:])),
		UsedBytes:    int64(binary.BigEndian.Uint64(out[8:])),
		Hits:         binary.BigEndian.Uint64(out[16:]),
		Misses:       binary.BigEndian.Uint64(out[24:]),
		Evictions:    binary.BigEndian.Uint64(out[32:]),
		TooLarge:     binary.BigEndian.Uint64(out[40:]),
		ShedDeadline: binary.BigEndian.Uint64(out[48:]),
		ShedQuota:    binary.BigEndian.Uint64(out[56:]),
		ShedQueue:    binary.BigEndian.Uint64(out[64:]),
	}
}

// MultiGet fetches a whole batch of keys in one round trip. vals[i] is
// nil when keys[i] is absent and non-nil (possibly empty) when present.
func (cl *Client) MultiGet(ctx context.Context, keys []string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	if len(keys) > maxBatchLen {
		return nil, fmt.Errorf("kvstore: MultiGet batch %d exceeds %d keys", len(keys), maxBatchLen)
	}
	c, err := cl.do(ctx, request{op: opMultiGet, keys: keys})
	if err != nil {
		return nil, err
	}
	status, outs := c.status, c.outs
	putCall(c)
	if status != statusOK {
		return nil, statusErr(status, fmt.Sprintf("MultiGet(%d keys)", len(keys)))
	}
	return outs, nil
}

// MultiPut stores a whole batch of key/value pairs in one round trip
// (see Put's buffer caveat). Storage is best-effort per key; the first
// per-key refusal (e.g. ErrTooLarge) is returned after the batch
// completes.
func (cl *Client) MultiPut(ctx context.Context, keys []string, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("kvstore: MultiPut got %d keys, %d values", len(keys), len(vals))
	}
	if len(keys) == 0 {
		return nil
	}
	if len(keys) > maxBatchLen {
		return fmt.Errorf("kvstore: MultiPut batch %d exceeds %d keys", len(keys), maxBatchLen)
	}
	c, err := cl.do(ctx, request{op: opMultiPut, keys: keys, vals: vals})
	if err != nil {
		return err
	}
	status, statuses := c.status, c.statuses
	putCall(c)
	if status != statusOK {
		return statusErr(status, fmt.Sprintf("MultiPut(%d keys)", len(keys)))
	}
	var firstErr error
	for i, st := range statuses {
		if err := cl.putErr(st, keys[i]); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
