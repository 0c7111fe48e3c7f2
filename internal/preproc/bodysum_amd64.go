//go:build amd64

package preproc

import (
	"math"

	"repro/internal/cpu"
)

// useAVX512 selects the one-pass AVX-512 block loop in decodeInto. It is
// set once, from the CPU's feature bits (AVX512F, AVX512BW and
// AVX512VBMI); only tests change it, to run both paths.
var useAVX512 = cpu.AVX512F && cpu.AVX512BW && cpu.AVX512VBMI

// decodePlanes is decodeTable split into byte planes: plane k holds byte
// k of each entry's bits, so four 256-byte lookups and an interleave
// rebuild the float32 (bodysum_amd64.s).
var decodePlanes = func() (planes [4][256]byte) {
	for b, v := range &decodeTable {
		bits := math.Float32bits(v)
		for k := range planes {
			planes[k][b] = byte(bits >> (8 * k))
		}
	}
	return planes
}()

// blockOrder and flipOrder pre-order a block's bytes for the interleave:
// the unpacks of a byte-plane lookup put index byte 16L+4q+d into dword
// d of 128-bit lane L of output register q, so byte 16L+4q+d must be
// body byte 16q+4L+d for the 64 floats to come out in order, or body
// byte 63-(16q+4L+d) for them to come out reversed.
var blockOrder, flipOrder = func() (in, rev [64]byte) {
	for lane := 0; lane < 4; lane++ {
		for q := 0; q < 4; q++ {
			for d := 0; d < 4; d++ {
				e := 16*q + 4*lane + d
				in[16*lane+4*q+d] = byte(e)
				rev[16*lane+4*q+d] = byte(63 - e)
			}
		}
	}
	return in, rev
}()

// decodeBlocksAVX512 is the decode kernel over the whole 64-byte blocks
// of body, one load per block: it stores decodeTable[b]+jitter for every
// byte b into dst (block k at dst[64k:], or, when flip is set, reversed
// into the 64 floats that end 64k floats before the end of dst) and
// advances acc[m], the checksum chain of word m of every block, by 31^64
// per block (bodysum_amd64.s).
//
//go:noescape
func decodeBlocksAVX512(dst []float32, body []byte, jitter float32, flip bool, acc *[8]uint64)
