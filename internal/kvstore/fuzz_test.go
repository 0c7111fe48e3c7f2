package kvstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzHandleFrame throws arbitrary bytes at the request parser, frame
// after frame until it errors: it must never panic, and must either
// serve each frame with a well-formed response or return an error that
// drops the connection. The store records traced spans and has its
// admission gates armed — every input gets a fresh two-token bucket, so
// from its third data frame on the shed path drains hostile bodies.
func FuzzHandleFrame(f *testing.F) {
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	chunk := func(b string) []byte { return append(u32(uint32(len(b))), b...) }
	frame := func(flags, op byte, parts ...[]byte) []byte {
		buf := append([]byte{frameMagic, flags, op}, u32(7)...)
		for _, p := range parts {
			buf = append(buf, p...)
		}
		return buf
	}
	budget := u32(500_000)
	tctx := binary.BigEndian.AppendUint64(nil, uint64(obs.NewTraceCtx(3, 1, 7)))
	get := frame(0, opGet, chunk("key"), u32(0))
	f.Add(get)
	f.Add(frame(0, opPut, chunk("key"), chunk("value")))
	f.Add(frame(0, opStats, u32(0), u32(0)))
	f.Add(frame(flagDeadline, opMultiGet, budget, u32(3), chunk("a"), chunk("b"), chunk("c")))
	f.Add(frame(flagTrace, opMultiPut, tctx, u32(2), chunk("a"), chunk("1"), chunk("b"), chunk("2")))
	f.Add(frame(flagDeadline|flagTrace, opGet, u32(1), tctx, chunk("key"), u32(0)))
	// Three pipelined frames: the third is shed and drained.
	f.Add(bytes.Join([][]byte{
		frame(flagTrace, opPut, tctx, chunk("k"), chunk("v")),
		frame(flagDeadline|flagTrace, opGet, budget, tctx, chunk("k"), u32(0)),
		frame(flagDeadline, opMultiPut, budget, u32(2), chunk("a"), chunk("1"), chunk("b"), chunk("2")),
	}, nil))
	f.Add(frame(1<<2, opGet, chunk("key"), u32(0)))                 // unknown flag bit
	f.Add(append([]byte{0xA2, opGet}, u32(7)...))                   // retired magic
	f.Add(frame(flagDeadline, opMultiGet, budget, u32(0xFFFFFFFF))) // hostile count
	f.Add(frame(0, 3, chunk("key"), u32(0)))                        // retired delete op
	f.Add(get[:6])                                                  // truncated header
	f.Add([]byte{})
	st := newStore(1<<20, 4)
	st.adm = newAdmitter(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QuotaRate: 1e-3, QuotaBurst: 2})
	st.trace = obs.NewTraceRing(64)
	f.Fuzz(func(t *testing.T, data []byte) {
		q := st.adm.newConnQuota(time.Now())
		r := bufio.NewReader(bytes.NewReader(data))
		w := bufio.NewWriter(io.Discard)
		for {
			if err := st.handleFrame(r, w, q, 0); err != nil {
				break
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("discard writer failed: %v", err)
		}
	})
}

// FuzzHandleV1 throws retired v1 op-byte frames (and anything else) at
// the request parser: it must never panic, and any input that does not
// open with frameMagic must be refused with an error before a single
// response byte is written.
func FuzzHandleV1(f *testing.F) {
	// Seed corpus: a valid v1 PUT, a valid v1 GET, truncations, and
	// oversized length fields.
	valid := func(op byte, key string, val []byte) []byte {
		var buf bytes.Buffer
		buf.WriteByte(op)
		buf.Write([]byte{0, 0, 0, byte(len(key))})
		buf.WriteString(key)
		buf.Write([]byte{0, 0, 0, byte(len(val))})
		buf.Write(val)
		return buf.Bytes()
	}
	f.Add(valid(opPut, "k", []byte("v")))
	f.Add(valid(opGet, "key", nil))
	f.Add([]byte{opGet})
	f.Add([]byte{opPut, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	st := newStore(1<<20, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		w := bufio.NewWriter(io.Discard)
		err := st.handleFrame(r, w, nil, 0)
		if len(data) > 0 && data[0] == frameMagic {
			return
		}
		if err == nil {
			t.Fatalf("frame opening with %#x was served", data[:1])
		}
		if w.Buffered() != 0 {
			t.Fatalf("refused frame wrote %d response bytes", w.Buffered())
		}
	})
}

// FuzzHandleV2 drives the flag-free request frame (everything after
// magic and flags) with arbitrary bytes: it must never panic and must
// produce either a well-formed response frame or an error that drops
// the connection.
func FuzzHandleV2(f *testing.F) {
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	frame := func(op byte, id uint32, body ...[]byte) []byte {
		buf := append([]byte{op}, u32(id)...)
		for _, b := range body {
			buf = append(buf, b...)
		}
		return buf
	}
	chunk := func(b []byte) []byte { return append(u32(uint32(len(b))), b...) }
	// Seeds: valid single ops, a 3-key MultiGet, a 2-pair MultiPut,
	// truncations, an unknown op, and hostile counts.
	f.Add(frame(opGet, 1, chunk([]byte("key")), u32(0)))
	f.Add(frame(opPut, 2, chunk([]byte("key")), chunk([]byte("value"))))
	f.Add(frame(opStats, 3, u32(0), u32(0)))
	f.Add(frame(opMultiGet, 4, u32(3), chunk([]byte("a")), chunk([]byte("b")), chunk([]byte("c"))))
	f.Add(frame(opMultiPut, 5, u32(2),
		chunk([]byte("a")), chunk([]byte("1")), chunk([]byte("b")), chunk([]byte("2"))))
	f.Add(frame(opMultiGet, 6, u32(0xFFFFFFFF)))
	f.Add(frame(0x7F, 7))
	f.Add([]byte{opGet})
	f.Add([]byte{})
	st := newStore(1<<20, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(io.MultiReader(bytes.NewReader([]byte{frameMagic, 0}), bytes.NewReader(data)))
		w := bufio.NewWriter(io.Discard)
		if err := st.handleFrame(r, w, nil, 0); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("discard writer failed: %v", err)
		}
	})
}

// FuzzHandleV2Deadline drives frames carrying flagDeadline against a
// store with every admission gate armed, so the shed/drain paths
// (drainBody, writeEmpty) see hostile bytes too.
func FuzzHandleV2Deadline(f *testing.F) {
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	frame := func(op byte, id, budget uint32, body ...[]byte) []byte {
		buf := append([]byte{op}, u32(id)...)
		buf = append(buf, u32(budget)...)
		for _, b := range body {
			buf = append(buf, b...)
		}
		return buf
	}
	chunk := func(b []byte) []byte { return append(u32(uint32(len(b))), b...) }
	// Seeds: deadlined single ops with generous and with ~expired
	// budgets, a deadlined MultiGet, truncation after the budget field.
	f.Add(frame(opGet, 1, 1_000_000, chunk([]byte("key")), u32(0)))
	f.Add(frame(opPut, 2, 1, chunk([]byte("key")), chunk([]byte("value"))))
	f.Add(frame(opMultiGet, 3, 500_000, u32(2), chunk([]byte("a")), chunk([]byte("b"))))
	f.Add(frame(opMultiPut, 4, 0, u32(1), chunk([]byte("a")), chunk([]byte("1"))))
	f.Add(frame(opStats, 5, 250, u32(0), u32(0)))
	f.Add([]byte{opGet, 0, 0})
	f.Add([]byte{})
	st := newStore(1<<20, 4)
	st.adm = newAdmitter(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QuotaRate: 1e6})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := st.adm.newConnQuota(time.Now())
		r := bufio.NewReader(io.MultiReader(bytes.NewReader([]byte{frameMagic, flagDeadline}), bytes.NewReader(data)))
		w := bufio.NewWriter(io.Discard)
		if err := st.handleFrame(r, w, q, 0); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("discard writer failed: %v", err)
		}
	})
}

// FuzzServerRoundTrip drives the real TCP server with fuzzed keys and
// values through the client: data integrity must hold for whatever fits
// the protocol limits.
func FuzzServerRoundTrip(f *testing.F) {
	s, err := NewServer("127.0.0.1:0", 1<<20)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	c, err := NewClient(s.Addr(), 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)

	f.Add("key", []byte("value"))
	f.Add("", []byte{})
	f.Add("unicode-κλειδί", []byte{0, 1, 2, 255})
	f.Fuzz(func(t *testing.T, key string, val []byte) {
		if len(key) > maxKeyLen || len(val) > 1<<15 {
			return
		}
		if err := c.Put(bg, key, val); err != nil {
			t.Fatal(err)
		}
		got, found, err := c.Get(bg, key)
		if err != nil || !found {
			t.Fatalf("Get(%q) = %v %v", key, found, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("round trip corrupted %q: %d vs %d bytes", key, len(got), len(val))
		}
	})
}
