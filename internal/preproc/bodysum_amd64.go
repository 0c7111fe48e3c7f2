//go:build amd64

package preproc

// useAVX2 selects the AVX2 block loop in bodySum. It is set once, from the
// CPU's feature bits; only tests change it, to run both paths.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state:
// CPUID leaf 1 ECX bit 27 (OSXSAVE), XCR0 bits 1 and 2 (XMM and YMM
// state) and CPUID leaf 7 EBX bit 5 (AVX2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// sumBlocksAVX2 advances eight interleaved checksum chains over the whole
// 64-byte blocks of body: acc[m] is the chain of word m of every block,
// stepped by 31^64 per block (bodysum_amd64.s).
//
//go:noescape
func sumBlocksAVX2(body []byte, acc *[8]uint64)
