//go:build amd64

package dataset

import "repro/internal/cpu"

// useAVX512 selects the eight-lane AVX-512 kernels for a payload's
// words. It is set once, from the CPU's feature bits (AVX512F); only
// tests change it, to run both paths.
var useAVX512 = cpu.AVX512F

// fillLanesAVX512 is fillLanes eight segments at a time, one per 64-bit
// lane of a ZMM register: body must be a whole number of words long, and
// receives the words that follow state x (payload_amd64.s).
//
//go:noescape
func fillLanesAVX512(body []byte, x uint64)

// matchLanesAVX512 is matchLanes on the lanes of fillLanesAVX512: it
// reports whether body holds the words that follow state x
// (payload_amd64.s).
//
//go:noescape
func matchLanesAVX512(body []byte, x uint64) bool
