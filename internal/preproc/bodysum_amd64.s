#include "textflag.h"

// func sumBlocksAVX2(body []byte, acc *[8]uint64)
//
// For each whole 64-byte block of body, in order, acc[m] becomes
// acc[m]*31^64 + fold8(word m of the block), mod 2^64, starting from 0.
// Y0 carries acc[0..3] and Y1 acc[4..7]. bodySum combines the eight
// lanes with powers of 31^8.
TEXT ·sumBlocksAVX2(SB), NOSPLIT, $0-32
	MOVQ body_base+0(FP), SI
	MOVQ body_len+8(FP), CX
	MOVQ acc+24(FP), DI
	SHRQ $6, CX

	// Y10: byte weights (31, 1); Y11: pair weights (961, 1);
	// Y12: 31^4; Y13, Y14: low and high halves of 31^64 mod 2^64.
	MOVQ         $0x011f011f011f011f, AX
	MOVQ         AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ         $0x000103c1000103c1, AX
	MOVQ         AX, X11
	VPBROADCASTQ X11, Y11
	MOVQ         $923521, AX
	MOVQ         AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ         $0x4dbf7801, AX
	MOVQ         AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ         $0x21498314, AX
	MOVQ         AX, X14
	VPBROADCASTQ X14, Y14

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	TESTQ CX, CX
	JZ    done

loop:
	// fold8 of four words per register: byte pairs b*31+b' (at most
	// 8160, so the int16 lanes never saturate), then quads p*961+p'
	// (below 2^23), then q*31^4+q' per word (below 2^43).
	VMOVDQU    0(SI), Y4
	VMOVDQU    32(SI), Y5
	VPMADDUBSW Y10, Y4, Y4
	VPMADDUBSW Y10, Y5, Y5
	VPMADDWD   Y11, Y4, Y4
	VPMADDWD   Y11, Y5, Y5
	VPMULUDQ   Y12, Y4, Y6
	VPMULUDQ   Y12, Y5, Y7
	VPSRLQ     $32, Y4, Y4
	VPSRLQ     $32, Y5, Y5
	VPADDQ     Y6, Y4, Y4
	VPADDQ     Y7, Y5, Y5

	// acc = acc*31^64 + fold8, the 64-bit product from three 32x32
	// multiplies: lo*lo + (hi*lo + lo*hi)<<32.
	VPSRLQ   $32, Y0, Y6
	VPSRLQ   $32, Y1, Y7
	VPMULUDQ Y13, Y6, Y6
	VPMULUDQ Y13, Y7, Y7
	VPMULUDQ Y14, Y0, Y8
	VPMULUDQ Y14, Y1, Y9
	VPADDQ   Y8, Y6, Y6
	VPADDQ   Y9, Y7, Y7
	VPSLLQ   $32, Y6, Y6
	VPSLLQ   $32, Y7, Y7
	VPMULUDQ Y13, Y0, Y0
	VPMULUDQ Y13, Y1, Y1
	VPADDQ   Y4, Y0, Y0
	VPADDQ   Y5, Y1, Y1
	VPADDQ   Y6, Y0, Y0
	VPADDQ   Y7, Y1, Y1

	ADDQ $64, SI
	DECQ CX
	JNZ  loop

done:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
