// Package cpu reports the x86 vector features the SIMD kernels choose
// their paths by: the payload stream (internal/dataset) and the decode
// kernel (internal/preproc). Each flag is read once at init, from CPUID
// and XGETBV on amd64; off amd64 all are false and the kernels run their
// portable loops.
package cpu

// AVX-512 support, each flag true only when the OS also saves the
// opmask and ZMM state, so the instructions are usable, not merely
// present.
var (
	// AVX512F is the foundation: 512-bit integer shifts, logic,
	// unpacks, 128-bit lane shuffles, compares into opmasks and masked
	// loads and stores.
	AVX512F bool
	// AVX512BW adds byte and word lanes.
	AVX512BW bool
	// AVX512VBMI adds the byte permutes (VPERMB, VPERMI2B).
	AVX512VBMI bool
)
