//go:build !amd64

package preproc

// useAVX512 is false off amd64: decodeInto runs the portable kernel alone.
var useAVX512 = false

func decodeBlocksAVX512(dst []float32, body []byte, jitter float32, flip bool, acc *[8]uint64) {
	panic("preproc: AVX-512 block loop called off amd64")
}
