// Package kvstore implements a sharded, TCP-based in-memory key-value
// store — the "alternatives to distributed caching like for example
// KV-stores" the paper names as a drop-in substitute for its peer-cache
// distribution manager (Section 2). The online runtime can mount a
// kvstore.Cluster as its shared cache layer instead of node-to-node
// fetches.
//
// The wire protocol is pipelined: every request frame carries a magic
// byte, a flags byte and a request ID, so many ops can be in flight per
// connection, and MultiGet/MultiPut move a whole plan window in one
// round trip. The flags add an optional deadline budget and an optional
// trace context to any request (frame layout in store.go and DESIGN.md
// §8). All lengths are big-endian.
//
// Servers bound their memory with an LRU over value bytes, striped
// across N key-hashed sub-shards so concurrent clients do not serialize
// on one mutex.
package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// connBufSize sizes the per-connection bufio reader/writer. Large
// enough that a pipelined burst of small ops coalesces into one
// syscall each way.
const connBufSize = 64 << 10

// Server is one KV shard.
type Server struct {
	ln net.Listener
	st *store

	wg     sync.WaitGroup
	closed chan struct{}

	mu    sync.Mutex // guards conns; never held across handler calls
	conns map[net.Conn]struct{}
}

// NewServer starts a shard listening on addr ("127.0.0.1:0" for an
// ephemeral port) with the given byte capacity. The LRU stripe count is
// chosen automatically (capacities below 64 KiB per stripe collapse to
// fewer stripes, tiny shards to a single global LRU). Note the
// admission bound: striping splits the capacity, so the largest
// admissible value is capacity / Stripes(), not capacity — larger puts
// are refused with ErrTooLarge and counted in Stats.TooLarge. Size the
// capacity (or pick an explicit ServerOptions.Stripes) so the
// per-stripe budget comfortably exceeds the largest value stored.
func NewServer(addr string, capacity int64) (*Server, error) {
	return NewServerOptions(addr, ServerOptions{Capacity: capacity})
}

// ServerOptions configures a shard beyond its capacity: LRU striping
// and the overload-control gates (admission.go, DESIGN.md §11).
type ServerOptions struct {
	// Capacity is the shard's byte budget (required, > 0).
	Capacity int64
	// Stripes is the LRU stripe count, rounded down to a power of two
	// (<= 0 auto-sizes). One stripe reproduces the exact global-LRU
	// eviction order of an unstriped store; more stripes trade that for
	// concurrency, with the byte budget — and therefore the largest
	// admissible value and the eviction pressure — split evenly per
	// stripe.
	Stripes int
	// Admission configures deadline-aware load shedding, per-connection
	// quotas and the bounded in-flight gate. The zero value disables
	// them all.
	Admission AdmissionConfig
	// Trace, when non-nil, records one server-side span per request
	// carrying a trace context, stamped with the originating rank/iter so
	// this shard's /trace.json merges with the requesting rank's trace.
	// Untraced frames record nothing.
	Trace *obs.TraceRing
}

// NewServerOptions starts a shard with explicit options.
func NewServerOptions(addr string, opts ServerOptions) (*Server, error) {
	if opts.Capacity <= 0 {
		return nil, fmt.Errorf("kvstore: capacity %d <= 0", opts.Capacity)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore: listen: %w", err)
	}
	st := newStore(opts.Capacity, opts.Stripes)
	st.adm = newAdmitter(opts.Admission)
	st.trace = opts.Trace
	s := &Server{
		ln:     ln,
		st:     st,
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetFault installs the shard's fault-injection profile (fault.go):
// per-request lag/jitter, statusError rate, connection-drop rate,
// optionally scoped per op — shared by the fault tests, the runtime's
// kv-tier tests and the overload benchmarks. A zero config restores
// health. Safe to call while serving.
func (s *Server) SetFault(cfg FaultConfig) { s.st.setFault(cfg) }

// QueueDepth reports requests executing or waiting at the admission
// gate right now (0 when admission is disabled).
func (s *Server) QueueDepth() int64 { return s.st.adm.queueDepth() }

// Addr returns the shard's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stripes returns the shard's LRU stripe count.
func (s *Server) Stripes() int { return len(s.st.stripes) }

// Close stops the listener, severs every live connection, and waits
// for connection handlers to exit. Clients see the drop as an I/O
// error mid-operation — the same failure mode as a crashed shard —
// which is what the cluster's partial-failure path (PartialError) is
// built to absorb.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close() // severing; the handler's own close also races here
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// track registers a live connection for teardown by Close. It refuses
// connections that race with Close so none slip past the sever loop.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Stats is a shard's counter snapshot.
type Stats struct {
	Items     int
	UsedBytes int64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// TooLarge counts puts refused because the value exceeded the
	// per-stripe byte budget (capacity / stripe count). Best-effort
	// writers that discard Put errors — e.g. the runtime's cache
	// write-backs — silently lose those samples from the shared tier, so
	// a growing TooLarge is the signal that values are outrunning the
	// striped admission bound and the shard needs more capacity or fewer
	// stripes.
	TooLarge uint64
	// ShedDeadline counts requests rejected with statusRetryLater
	// because their client-supplied deadline budget ran out before an
	// in-flight slot opened (admission.go gate 1).
	ShedDeadline uint64
	// ShedQuota counts requests rejected because their connection's
	// token bucket was empty (gate 2).
	ShedQuota uint64
	// ShedQueue counts deadline-less requests rejected because the
	// admission queue was full or the MaxWait slot wait expired (gate 3).
	ShedQueue uint64
}

// Stats returns a snapshot aggregated across stripes.
func (s *Server) Stats() Stats { return s.st.stats() }

// HealthSignals implements monitor.HealthSignaler (structurally; the
// kvstore does not import the monitor): a shard monitor's /healthz
// probe surfaces the overload-control shed counters and refused
// oversized puts alongside liveness.
func (st Stats) HealthSignals() map[string]uint64 {
	return map[string]uint64{
		"shed_deadline": st.ShedDeadline,
		"shed_quota":    st.ShedQuota,
		"shed_queue":    st.ShedQueue,
		"too_large":     st.TooLarge,
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			// Transient accept failure: keep serving.
			continue
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve processes frames from one connection until it drops. Responses
// are written in request order and flushed only when the read buffer
// holds no further request bytes, so a pipelined burst of N ops costs
// one write syscall, not N.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if !s.track(conn) {
		return // lost the race with Close
	}
	defer s.untrack(conn)
	r := bufio.NewReaderSize(conn, connBufSize)
	w := bufio.NewWriterSize(conn, connBufSize)
	q := s.st.adm.newConnQuota(time.Now())
	var tid int64
	if s.st.trace != nil {
		tid = s.st.trace.NewThread("kv/conn")
	}
	for {
		if err := s.st.handleFrame(r, w, q, tid); err != nil {
			return // EOF or protocol error: drop the connection
		}
		if r.Buffered() == 0 {
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}
