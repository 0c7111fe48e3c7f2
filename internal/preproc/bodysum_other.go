//go:build !amd64

package preproc

// useAVX2 is false off amd64: bodySum runs the portable word loop alone.
var useAVX2 = false

func sumBlocksAVX2(body []byte, acc *[8]uint64) {
	panic("preproc: AVX2 block loop called off amd64")
}
