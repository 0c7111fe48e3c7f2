//go:build !amd64

package dataset

// useAVX512 is false off amd64: the payload words run in fillLanes and
// matchLanes alone.
var useAVX512 = false

func fillLanesAVX512(body []byte, x uint64) {
	panic("dataset: AVX-512 payload lanes called off amd64")
}

func matchLanesAVX512(body []byte, x uint64) bool {
	panic("dataset: AVX-512 payload lanes called off amd64")
}
