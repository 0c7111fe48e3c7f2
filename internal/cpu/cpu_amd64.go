//go:build amd64

package cpu

func init() {
	AVX512F, AVX512BW, AVX512VBMI = probe()
}

// probe reads CPUID leaf 1 ECX bit 27 (OSXSAVE), XCR0 bits 1, 2, 5, 6
// and 7 (XMM, YMM, opmask and both ZMM halves) and CPUID leaf 7 EBX bits
// 16 and 30 (AVX512F, AVX512BW) and ECX bit 1 (AVX512VBMI).
func probe() (f, bw, vbmi bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false, false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false, false, false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 {
		return false, false, false
	}
	_, ebx, ecx, _ := cpuid(7, 0)
	f = ebx&(1<<16) != 0
	return f, f && ebx&(1<<30) != 0, f && ecx&(1<<1) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
