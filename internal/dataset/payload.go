package dataset

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/stats"
)

// Payload deterministically regenerates the raw bytes of a sample for the
// online runtime. The content is a function of (dataset seed, sample id)
// only, so every node's PFS store serves identical bytes — which lets
// integration tests verify end-to-end data integrity after cache hops.
//
// The first 12 bytes are a header (sample id + length) that the preproc
// decoder validates; the rest is a cheap xorshift stream.
func (d *Dataset) Payload(id SampleID) []byte {
	size := d.sizes[id]
	buf := make([]byte, size)
	FillPayload(buf, d.seed, id)
	return buf
}

// PayloadHeaderSize is the number of leading bytes carrying sample
// metadata inside a payload. Samples smaller than this carry a truncated
// header.
const PayloadHeaderSize = 12

// payloadHeader is the header of sample id's payload of n bytes.
func payloadHeader(n int, id SampleID) (hdr [PayloadHeaderSize]byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(id))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(n))
	return hdr
}

// FillPayload writes the deterministic payload of sample id into buf
// (whose length defines the sample size written): the header, then the
// words xorshift(s), xorshift²(s), … of s = DeriveSeed(seed, id+1) as a
// little-endian byte stream cut off at the buffer's end. The whole words
// are written in lanes (fillLanes, or fillLanesAVX512 where the CPU has
// AVX-512F); the last partial word, if any, follows from the last whole
// one.
func FillPayload(buf []byte, seed uint64, id SampleID) {
	hdr := payloadHeader(len(buf), id)
	body := buf[copy(buf, hdr[:]):]
	x := stats.DeriveSeed(seed, uint64(id)+1)
	words := len(body) &^ 7
	if useAVX512 {
		fillLanesAVX512(body[:words], x)
	} else {
		fillLanes(body[:words], x)
	}
	if words < len(body) {
		w := tailWord(body, words, x)
		copy(body[words:], w[:])
	}
}

// tailWord is the word whose leading bytes end a body of words whole
// words and a partial one: xorshift of the last whole word, which fill
// has just written and verify has just matched, or of the start state x
// when there is none.
func tailWord(body []byte, words int, x uint64) (w [8]byte) {
	if words > 0 {
		x = binary.LittleEndian.Uint64(body[words-8:])
	}
	binary.LittleEndian.PutUint64(w[:], xorshift(x))
	return w
}

func xorshift(state uint64) uint64 {
	state ^= state << 13
	state ^= state >> 7
	state ^= state << 17
	return state
}

// The words of a payload body are generated in segments of segWords
// words. Segment i starts from the state xorshift^(segWords·i)(s), which
// skipSegment reaches from segment i-1's start in eight table lookups:
// xorshift is linear over GF(2) (each step XORs shifted copies of the
// state), so advancing a state by segWords steps is a fixed 64×64 bit
// matrix, and the matrix applied to x is the XOR, over the bytes k of x,
// of its columns for byte k — segJump[k][byte k of x]. With the segment
// starts known, several segments run side by side, one independent
// xorshift chain each, instead of one chain through the whole body.
const (
	segWords = 32
	segBytes = 8 * segWords
)

// segJump is xorshift^segWords as eight byte tables, built from xorshift
// itself: entry [k][1<<i] is bit 8k+i of a state advanced segWords steps,
// and, by linearity, every other entry is the XOR of its bits' entries.
var segJump = func() (t [8][256]uint64) {
	for k := range t {
		for i := 0; i < 8; i++ {
			x := uint64(1) << (8*k + i)
			for s := 0; s < segWords; s++ {
				x = xorshift(x)
			}
			t[k][1<<i] = x
		}
		for b := 1; b < 256; b++ {
			t[k][b] = t[k][b&(b-1)] ^ t[k][b&-b]
		}
	}
	return t
}()

// skipSegment returns xorshift^segWords(x).
func skipSegment(x uint64) uint64 {
	t := &segJump
	return t[0][byte(x)] ^ t[1][byte(x>>8)] ^ t[2][byte(x>>16)] ^ t[3][byte(x>>24)] ^
		t[4][byte(x>>32)] ^ t[5][byte(x>>40)] ^ t[6][byte(x>>48)] ^ t[7][byte(x>>56)]
}

// fillLanes writes the words that follow state x into body, a whole
// number of words long, four segments at a time: one lane per segment,
// stepped together so the four chains overlap in the CPU. In the last,
// partial group a lane stops writing where body ends.
func fillLanes(body []byte, x uint64) {
	for len(body) > 0 {
		x0 := x
		x1 := skipSegment(x0)
		x2 := skipSegment(x1)
		x3 := skipSegment(x2)
		x = skipSegment(x3)
		if len(body) < 4*segBytes {
			for i := 0; i < segBytes && i < len(body); i += 8 {
				x0, x1, x2, x3 = xorshift(x0), xorshift(x1), xorshift(x2), xorshift(x3)
				putWord(body, i, x0)
				putWord(body, i+segBytes, x1)
				putWord(body, i+2*segBytes, x2)
				putWord(body, i+3*segBytes, x3)
			}
			return
		}
		s0, s1, s2, s3 := segments(body)
		for i := 0; i <= segBytes-8; i += 8 {
			x0, x1, x2, x3 = xorshift(x0), xorshift(x1), xorshift(x2), xorshift(x3)
			binary.LittleEndian.PutUint64(s0[i:i+8:i+8], x0)
			binary.LittleEndian.PutUint64(s1[i:i+8:i+8], x1)
			binary.LittleEndian.PutUint64(s2[i:i+8:i+8], x2)
			binary.LittleEndian.PutUint64(s3[i:i+8:i+8], x3)
		}
		body = body[4*segBytes:]
	}
}

// segments views the first four segments of body.
func segments(body []byte) (s0, s1, s2, s3 *[segBytes]byte) {
	return (*[segBytes]byte)(body[0*segBytes:]), (*[segBytes]byte)(body[1*segBytes:]),
		(*[segBytes]byte)(body[2*segBytes:]), (*[segBytes]byte)(body[3*segBytes:])
}

// putWord stores w at body[off:] if that word is inside body.
func putWord(body []byte, off int, w uint64) {
	if off < len(body) {
		binary.LittleEndian.PutUint64(body[off:], w)
	}
}

// matchLanes reports whether body, a whole number of words long, holds
// the words that follow state x: fillLanes' lanes, XORed against body
// instead of stored.
func matchLanes(body []byte, x uint64) bool {
	for len(body) > 0 {
		x0 := x
		x1 := skipSegment(x0)
		x2 := skipSegment(x1)
		x3 := skipSegment(x2)
		x = skipSegment(x3)
		var diff uint64
		if len(body) < 4*segBytes {
			for i := 0; i < segBytes && i < len(body); i += 8 {
				x0, x1, x2, x3 = xorshift(x0), xorshift(x1), xorshift(x2), xorshift(x3)
				diff |= wordDiff(body, i, x0) | wordDiff(body, i+segBytes, x1) |
					wordDiff(body, i+2*segBytes, x2) | wordDiff(body, i+3*segBytes, x3)
			}
			return diff == 0
		}
		s0, s1, s2, s3 := segments(body)
		for i := 0; i <= segBytes-8; i += 8 {
			x0, x1, x2, x3 = xorshift(x0), xorshift(x1), xorshift(x2), xorshift(x3)
			diff |= (binary.LittleEndian.Uint64(s0[i:i+8:i+8]) ^ x0) | (binary.LittleEndian.Uint64(s1[i:i+8:i+8]) ^ x1) |
				(binary.LittleEndian.Uint64(s2[i:i+8:i+8]) ^ x2) | (binary.LittleEndian.Uint64(s3[i:i+8:i+8]) ^ x3)
		}
		if diff != 0 {
			return false
		}
		body = body[4*segBytes:]
	}
	return true
}

// wordDiff is the word at body[off:] XOR w, or 0 past the end of body.
func wordDiff(body []byte, off int, w uint64) uint64 {
	if off < len(body) {
		return binary.LittleEndian.Uint64(body[off:]) ^ w
	}
	return 0
}

// VerifyPayload checks that buf is the payload of sample id under seed:
// every byte, header and body, against the stream FillPayload writes,
// regenerated in the same lanes with no buffer. It returns a descriptive
// error on mismatch.
//
//lint:hotpath one check per value a kv read returns; a scratch copy of the payload was most of the reader's garbage
func VerifyPayload(buf []byte, seed uint64, id SampleID) error {
	if len(buf) >= 4 {
		gotID := binary.LittleEndian.Uint32(buf[0:4])
		if gotID != uint32(id) {
			//lint:allow hotpath cold mismatch path, formatted once per corrupt payload
			return fmt.Errorf("dataset: payload header id %d, want %d", gotID, id)
		}
	}
	if off := payloadMismatch(buf, seed, id); off >= 0 {
		//lint:allow hotpath cold mismatch path, formatted once per corrupt payload
		return fmt.Errorf("dataset: payload of sample %d corrupt at offset %d", id, off)
	}
	return nil
}

// payloadMismatch returns the offset of the first byte of buf that
// differs from FillPayload's output for a buffer of its length, or -1.
// The whole words are checked in lanes; only a body that fails there is
// scanned again, word by word, for the offset.
func payloadMismatch(buf []byte, seed uint64, id SampleID) int {
	hdr := payloadHeader(len(buf), id)
	n := min(len(buf), PayloadHeaderSize)
	for i := 0; i < n; i++ {
		if buf[i] != hdr[i] {
			return i
		}
	}
	body := buf[n:]
	x := stats.DeriveSeed(seed, uint64(id)+1)
	words := len(body) &^ 7
	var ok bool
	if useAVX512 {
		ok = matchLanesAVX512(body[:words], x)
	} else {
		ok = matchLanes(body[:words], x)
	}
	if ok && words < len(body) {
		w := tailWord(body, words, x)
		for j, b := range body[words:] {
			ok = ok && b == w[j]
		}
	}
	if ok {
		return -1
	}
	return n + streamMismatch(body, x)
}

// streamMismatch returns the offset of the first byte of body that
// differs from the words following state x as a little-endian byte
// stream, or -1: one xorshift chain, a word at a time. It locates the
// byte once the lanes have found a mismatch.
func streamMismatch(body []byte, x uint64) int {
	i := 0
	for ; i+8 <= len(body); i += 8 {
		x = xorshift(x)
		if diff := binary.LittleEndian.Uint64(body[i:]) ^ x; diff != 0 {
			return i + bits.TrailingZeros64(diff)/8 // little-endian: low byte first
		}
	}
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], xorshift(x))
	for j := 0; i+j < len(body); j++ {
		if body[i+j] != w[j] {
			return i + j
		}
	}
	return -1
}
