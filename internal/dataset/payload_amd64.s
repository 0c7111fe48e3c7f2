#include "textflag.h"

// The eight-lane payload kernels. A group is eight segments of segWords
// (32) words, 2048 bytes; lane j of Z8 walks segment j, whose start state
// is the chain state advanced j segments (SKIP, the segJump tables).
// BLOCK steps every lane eight times into Z1-Z8, so Z1+k holds word k
// of the block of every lane, and transposes the 8x8 words so that Z22+j
// holds lane j's eight words in order: one 64-byte store (or compare) per
// lane at 256j bytes into the group. A body that ends inside a group runs
// that group with the stores masked to the words that exist.

// laneIota is the qword vector 0, 1, ..., 7: the word indices of a block.
DATA laneIota<>+0(SB)/8, $0
DATA laneIota<>+8(SB)/8, $1
DATA laneIota<>+16(SB)/8, $2
DATA laneIota<>+24(SB)/8, $3
DATA laneIota<>+32(SB)/8, $4
DATA laneIota<>+40(SB)/8, $5
DATA laneIota<>+48(SB)/8, $6
DATA laneIota<>+56(SB)/8, $7
GLOBL laneIota<>(SB), RODATA|NOPTR, $64

// STEP: dst = xorshift(src) in every lane, Z9 scratch.
#define STEP(src, dst) \
	VPSLLQ $13, src, Z9; \
	VPXORQ Z9, src, dst; \
	VPSRLQ $7, dst, Z9;  \
	VPXORQ Z9, dst, dst; \
	VPSLLQ $17, dst, Z9; \
	VPXORQ Z9, dst, dst

// BLOCK: eight steps from the lane states in Z8 (left there for the
// next block), then the transpose. Unpacks pair words 2i and 2i+1 of
// each lane inside 128-bit chunks (Z10-Z17, chunk c holding lane 2c for
// the low unpacks and lane 2c+1 for the high ones); two rounds of
// VSHUFI64X2 gather each lane's four chunks: imm 0x88 takes chunks 0 and
// 2 of both sources, 0xdd chunks 1 and 3.
#define BLOCK \
	STEP(Z8, Z1); \
	STEP(Z1, Z2); \
	STEP(Z2, Z3); \
	STEP(Z3, Z4); \
	STEP(Z4, Z5); \
	STEP(Z5, Z6); \
	STEP(Z6, Z7); \
	STEP(Z7, Z8); \
	VPUNPCKLQDQ Z2, Z1, Z10;          \
	VPUNPCKHQDQ Z2, Z1, Z11;          \
	VPUNPCKLQDQ Z4, Z3, Z12;          \
	VPUNPCKHQDQ Z4, Z3, Z13;          \
	VPUNPCKLQDQ Z6, Z5, Z14;          \
	VPUNPCKHQDQ Z6, Z5, Z15;          \
	VPUNPCKLQDQ Z8, Z7, Z16;          \
	VPUNPCKHQDQ Z8, Z7, Z17;          \
	VSHUFI64X2  $0x88, Z12, Z10, Z18; \
	VSHUFI64X2  $0xdd, Z12, Z10, Z19; \
	VSHUFI64X2  $0x88, Z16, Z14, Z20; \
	VSHUFI64X2  $0xdd, Z16, Z14, Z21; \
	VSHUFI64X2  $0x88, Z20, Z18, Z22; \
	VSHUFI64X2  $0xdd, Z20, Z18, Z26; \
	VSHUFI64X2  $0x88, Z21, Z19, Z24; \
	VSHUFI64X2  $0xdd, Z21, Z19, Z28; \
	VSHUFI64X2  $0x88, Z13, Z11, Z18; \
	VSHUFI64X2  $0xdd, Z13, Z11, Z19; \
	VSHUFI64X2  $0x88, Z17, Z15, Z20; \
	VSHUFI64X2  $0xdd, Z17, Z15, Z21; \
	VSHUFI64X2  $0x88, Z20, Z18, Z23; \
	VSHUFI64X2  $0xdd, Z20, Z18, Z27; \
	VSHUFI64X2  $0x88, Z21, Z19, Z25; \
	VSHUFI64X2  $0xdd, Z21, Z19, Z29

// SKIP: AX = xorshift^32(AX), one lookup per byte in segJump (R8); BX and
// DX scratch.
#define SKIP \
	MOVQ    AX, BX;                  \
	MOVBQZX BL, DX;                  \
	MOVQ    0(R8)(DX*8), AX;         \
	SHRQ    $8, BX;                  \
	MOVBQZX BL, DX;                  \
	XORQ    2048(R8)(DX*8), AX;      \
	SHRQ    $8, BX;                  \
	MOVBQZX BL, DX;                  \
	XORQ    4096(R8)(DX*8), AX;      \
	SHRQ    $8, BX;                  \
	MOVBQZX BL, DX;                  \
	XORQ    6144(R8)(DX*8), AX;      \
	SHRQ    $8, BX;                  \
	MOVBQZX BL, DX;                  \
	XORQ    8192(R8)(DX*8), AX;      \
	SHRQ    $8, BX;                  \
	MOVBQZX BL, DX;                  \
	XORQ    10240(R8)(DX*8), AX;     \
	SHRQ    $8, BX;                  \
	MOVBQZX BL, DX;                  \
	XORQ    12288(R8)(DX*8), AX;     \
	SHRQ    $8, BX;                  \
	XORQ    14336(R8)(BX*8), AX

// LANE(j): the chain state AX is lane j's start: save it in the frame
// and advance AX one segment.
#define LANE(j) \
	MOVQ AX, (8*j)(SP); \
	SKIP

// COUNTS: the frame's eight lane starts are replaced by lane j's word
// count from the block in progress on, CX - 32j for CX words left in the
// group; Z30 = laneIota and Z31 = 8 in every lane advance the block's
// word indices; R9 = the blocks the longest lane needs.
#define COUNTS \
	MOVQ         CX, 0(SP);         \
	LEAQ         -32(CX), BX;       \
	MOVQ         BX, 8(SP);         \
	LEAQ         -64(CX), BX;       \
	MOVQ         BX, 16(SP);        \
	LEAQ         -96(CX), BX;       \
	MOVQ         BX, 24(SP);        \
	LEAQ         -128(CX), BX;      \
	MOVQ         BX, 32(SP);        \
	LEAQ         -160(CX), BX;      \
	MOVQ         BX, 40(SP);        \
	LEAQ         -192(CX), BX;      \
	MOVQ         BX, 48(SP);        \
	LEAQ         -224(CX), BX;      \
	MOVQ         BX, 56(SP);        \
	VMOVDQU64    laneIota<>(SB), Z30; \
	MOVQ         $8, BX;            \
	VPBROADCASTQ BX, Z31;           \
	MOVQ         CX, R9;            \
	CMPQ         R9, $32;           \
	JBE          2(PC);             \
	MOVQ         $32, R9;           \
	ADDQ         $7, R9;            \
	SHRQ         $3, R9

// LANEMASK(j): K1 = the words of lane j's block that lie inside the body
// (word index below the lane's count; a negative count masks them all).
#define LANEMASK(j) \
	VPBROADCASTQ (8*j)(SP), Z9; \
	VPCMPQ       $1, Z9, Z30, K1

#define STOREFULL \
	VMOVDQU64 Z22, 0(DI);    \
	VMOVDQU64 Z23, 256(DI);  \
	VMOVDQU64 Z24, 512(DI);  \
	VMOVDQU64 Z25, 768(DI);  \
	VMOVDQU64 Z26, 1024(DI); \
	VMOVDQU64 Z27, 1280(DI); \
	VMOVDQU64 Z28, 1536(DI); \
	VMOVDQU64 Z29, 1792(DI); \
	ADDQ      $64, DI

#define STOREMASKED(j, T) \
	LANEMASK(j); \
	VMOVDQU64 T, K1, (256*j)(DI)

// MATCHFULL and MATCHMASKED OR the XOR of each lane's words and the
// body into Z0, one VPTERNLOGQ each (imm 0xf6: Z0 | (T ^ body)); a
// masked match loads only the words inside the body and keeps the
// generated words elsewhere, so those XOR to zero.
#define MATCHFULL \
	VPTERNLOGQ $0xf6, 0(DI), Z22, Z0;    \
	VPTERNLOGQ $0xf6, 256(DI), Z23, Z0;  \
	VPTERNLOGQ $0xf6, 512(DI), Z24, Z0;  \
	VPTERNLOGQ $0xf6, 768(DI), Z25, Z0;  \
	VPTERNLOGQ $0xf6, 1024(DI), Z26, Z0; \
	VPTERNLOGQ $0xf6, 1280(DI), Z27, Z0; \
	VPTERNLOGQ $0xf6, 1536(DI), Z28, Z0; \
	VPTERNLOGQ $0xf6, 1792(DI), Z29, Z0; \
	ADDQ       $64, DI

#define MATCHMASKED(j, T) \
	LANEMASK(j);                    \
	VMOVDQA64  T, Z10;              \
	VMOVDQU64  (256*j)(DI), K1, Z10; \
	VPTERNLOGQ $0xf6, Z10, T, Z0

// func fillLanesAVX512(body []byte, x uint64)
//
// Frame: the eight lane starts of the next group (then, in a last
// partial group, the lane word counts). Each whole group loads its
// starts and computes the next group's, two segments per block, so the
// scalar chain overlaps the vector steps.
TEXT ·fillLanesAVX512(SB), NOSPLIT, $64-32
	MOVQ body_base+0(FP), DI
	MOVQ body_len+8(FP), CX
	MOVQ x+24(FP), AX
	LEAQ ·segJump(SB), R8
	SHRQ $3, CX
	JZ   filldone
	LANE(0)
	LANE(1)
	LANE(2)
	LANE(3)
	LANE(4)
	LANE(5)
	LANE(6)
	LANE(7)

fillgroup:
	CMPQ      CX, $256
	JB        filltail
	VMOVDQU64 0(SP), Z8
	LANE(0)
	LANE(1)
	BLOCK
	STOREFULL
	LANE(2)
	LANE(3)
	BLOCK
	STOREFULL
	LANE(4)
	LANE(5)
	BLOCK
	STOREFULL
	LANE(6)
	LANE(7)
	BLOCK
	STOREFULL
	ADDQ      $1792, DI
	SUBQ      $256, CX
	JNZ       fillgroup
	JMP       filldone

filltail:
	VMOVDQU64 0(SP), Z8
	COUNTS

fillblock:
	BLOCK
	STOREMASKED(0, Z22)
	STOREMASKED(1, Z23)
	STOREMASKED(2, Z24)
	STOREMASKED(3, Z25)
	STOREMASKED(4, Z26)
	STOREMASKED(5, Z27)
	STOREMASKED(6, Z28)
	STOREMASKED(7, Z29)
	ADDQ   $64, DI
	VPADDQ Z31, Z30, Z30
	DECQ   R9
	JNZ    fillblock

filldone:
	VZEROUPPER
	RET

// func matchLanesAVX512(body []byte, x uint64) bool
//
// fillLanesAVX512's walk, comparing instead of storing: Z0 collects the
// XOR of every generated word and its body word.
TEXT ·matchLanesAVX512(SB), NOSPLIT, $64-33
	MOVQ   body_base+0(FP), DI
	MOVQ   body_len+8(FP), CX
	MOVQ   x+24(FP), AX
	LEAQ   ·segJump(SB), R8
	VPXORQ Z0, Z0, Z0
	SHRQ   $3, CX
	JZ     matchdone
	LANE(0)
	LANE(1)
	LANE(2)
	LANE(3)
	LANE(4)
	LANE(5)
	LANE(6)
	LANE(7)

matchgroup:
	CMPQ      CX, $256
	JB        matchtail
	VMOVDQU64 0(SP), Z8
	LANE(0)
	LANE(1)
	BLOCK
	MATCHFULL
	LANE(2)
	LANE(3)
	BLOCK
	MATCHFULL
	LANE(4)
	LANE(5)
	BLOCK
	MATCHFULL
	LANE(6)
	LANE(7)
	BLOCK
	MATCHFULL
	ADDQ      $1792, DI
	SUBQ      $256, CX
	JNZ       matchgroup
	JMP       matchdone

matchtail:
	VMOVDQU64 0(SP), Z8
	COUNTS

matchblock:
	BLOCK
	MATCHMASKED(0, Z22)
	MATCHMASKED(1, Z23)
	MATCHMASKED(2, Z24)
	MATCHMASKED(3, Z25)
	MATCHMASKED(4, Z26)
	MATCHMASKED(5, Z27)
	MATCHMASKED(6, Z28)
	MATCHMASKED(7, Z29)
	ADDQ   $64, DI
	VPADDQ Z31, Z30, Z30
	DECQ   R9
	JNZ    matchblock

matchdone:
	VPTESTMQ Z0, Z0, K1
	KMOVW    K1, AX
	TESTL    AX, AX
	SETEQ    ret+32(FP)
	VZEROUPPER
	RET
