#include "textflag.h"

// func decodeBlocksAVX512(dst []float32, body []byte, jitter float32, flip bool, acc *[8]uint64)
//
// For each whole 64-byte block of body, in order, loaded once:
//   - checksum: acc[m] becomes acc[m]*31^64 + fold8(word m of the
//     block), mod 2^64, starting from 0, in Z4. decodeInto combines the
//     eight lanes with powers of 31^8.
//   - decode: VPERMB pre-orders the bytes (blockOrder or flipOrder), four
//     VPERMI2B pairs look each byte up in the byte planes of decodeTable
//     (Z16-Z31, one 64-byte quarter of a plane each; bit 7 of the byte
//     picks the pair's half through K1/K2), two rounds of unpacks
//     interleave the planes back into float32s, VADDPS adds the jitter,
//     and the 64 floats are stored at DI, which steps by DX.
TEXT ·decodeBlocksAVX512(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ body_base+24(FP), SI
	MOVQ body_len+32(FP), CX
	MOVQ acc+56(FP), R9
	SHRQ $6, CX

	// In order, block k goes to dst[64k:]; flipped, it goes reversed to
	// the 64 floats that end 64k floats before the end of dst.
	MOVQ $256, DX
	LEAQ ·blockOrder(SB), R8
	CMPB flip+52(FP), $0
	JEQ  setup
	MOVQ dst_len+8(FP), AX
	LEAQ -256(DI)(AX*4), DI
	MOVQ $-256, DX
	LEAQ ·flipOrder(SB), R8

setup:
	LEAQ      ·decodePlanes(SB), AX
	VMOVDQU64 0(AX), Z16
	VMOVDQU64 64(AX), Z17
	VMOVDQU64 128(AX), Z18
	VMOVDQU64 192(AX), Z19
	VMOVDQU64 256(AX), Z20
	VMOVDQU64 320(AX), Z21
	VMOVDQU64 384(AX), Z22
	VMOVDQU64 448(AX), Z23
	VMOVDQU64 512(AX), Z24
	VMOVDQU64 576(AX), Z25
	VMOVDQU64 640(AX), Z26
	VMOVDQU64 704(AX), Z27
	VMOVDQU64 768(AX), Z28
	VMOVDQU64 832(AX), Z29
	VMOVDQU64 896(AX), Z30
	VMOVDQU64 960(AX), Z31
	VMOVDQU64 (R8), Z2
	VBROADCASTSS jitter+48(FP), Z3

	// Z13: byte weights (31, 1); Z14: pair weights (961, 1); Z15: 31^4;
	// Z5, Z6: low and high halves of 31^64 mod 2^64.
	MOVQ         $0x011f011f011f011f, AX
	VPBROADCASTQ AX, Z13
	MOVQ         $0x000103c1000103c1, AX
	VPBROADCASTQ AX, Z14
	MOVQ         $923521, AX
	VPBROADCASTQ AX, Z15
	MOVQ         $0x4dbf7801, AX
	VPBROADCASTQ AX, Z5
	MOVQ         $0x21498314, AX
	VPBROADCASTQ AX, Z6

	VPXORQ Z4, Z4, Z4
	TESTQ  CX, CX
	JZ     done

loop:
	VMOVDQU64 (SI), Z0

	// fold8 of the eight words: byte pairs b*31+b' (at most 8160, so the
	// int16 lanes never saturate), then quads p*961+p' (below 2^23), then
	// q*31^4+q' per word (below 2^43).
	VPMADDUBSW Z13, Z0, Z11
	VPMADDWD   Z14, Z11, Z11
	VPMULUDQ   Z15, Z11, Z12
	VPSRLQ     $32, Z11, Z11
	VPADDQ     Z12, Z11, Z11

	// acc = acc*31^64 + fold8, the 64-bit product from three 32x32
	// multiplies: lo*lo + (hi*lo + lo*hi)<<32.
	VPSRLQ   $32, Z4, Z12
	VPMULUDQ Z5, Z12, Z12
	VPMULUDQ Z6, Z4, Z7
	VPADDQ   Z7, Z12, Z12
	VPSLLQ   $32, Z12, Z12
	VPMULUDQ Z5, Z4, Z4
	VPADDQ   Z11, Z4, Z4
	VPADDQ   Z12, Z4, Z4

	// Plane k of every byte into Z7+k: K1 marks the bytes of 128 and up,
	// which look up the plane's upper half, K2 the rest.
	VPERMB    Z0, Z2, Z1
	VPMOVB2M  Z1, K1
	KNOTQ     K1, K2
	VMOVDQA64 Z1, Z7
	VPERMI2B  Z19, Z18, K1, Z7
	VPERMI2B  Z17, Z16, K2, Z7
	VMOVDQA64 Z1, Z8
	VPERMI2B  Z23, Z22, K1, Z8
	VPERMI2B  Z21, Z20, K2, Z8
	VMOVDQA64 Z1, Z9
	VPERMI2B  Z27, Z26, K1, Z9
	VPERMI2B  Z25, Z24, K2, Z9
	VMOVDQA64 Z1, Z10
	VPERMI2B  Z31, Z30, K1, Z10
	VPERMI2B  Z29, Z28, K2, Z10

	// Bytes to words (planes 0|1 and 2|3), words to dwords: output
	// register q gets lane L's dwords from index bytes 16L+4q..16L+4q+3.
	VPUNPCKLBW Z8, Z7, Z11
	VPUNPCKHBW Z8, Z7, Z12
	VPUNPCKLBW Z10, Z9, Z7
	VPUNPCKHBW Z10, Z9, Z8
	VPUNPCKLWD Z7, Z11, Z9
	VPUNPCKHWD Z7, Z11, Z10
	VPUNPCKLWD Z8, Z12, Z11
	VPUNPCKHWD Z8, Z12, Z12

	VADDPS  Z3, Z9, Z9
	VADDPS  Z3, Z10, Z10
	VADDPS  Z3, Z11, Z11
	VADDPS  Z3, Z12, Z12
	VMOVUPS Z9, 0(DI)
	VMOVUPS Z10, 64(DI)
	VMOVUPS Z11, 128(DI)
	VMOVUPS Z12, 192(DI)

	ADDQ $64, SI
	ADDQ DX, DI
	DECQ CX
	JNZ  loop

done:
	VMOVDQU64 Z4, (R9)
	VZEROUPPER
	RET
