//go:build amd64 && !purego

#include "textflag.h"

// The vector kernels behind matchSurvivors (kernel.go), for 8-bit rows
// stored as nibble planes. A nibble is equal when the XOR of row and
// query is zero in it; an 8-bit lane is equal when the OR of its two
// planes' XORs is zero in its nibble.
//
// Stage 1 counts every row's equal low-plane nibbles and stores the
// row's offset at dst[k] unconditionally; CMPQ count, minCount sets the
// carry when the count is short and SBBQ $-1 adds 1 minus the carry to
// k, so the store is kept only for a survivor, without a branch. Stage 2
// walks the k survivors, reads both planes of each, and stores its exact
// count beside its offset. Both return k.
//
// func survivorsAVX512(dst *survivor, lo, hi, qlo, qhi *uint64, n, vecs, minCount int) int
//
// Per 64 bytes: VPXORQ, then VPTESTNMB against 0x0F and against 0xF0
// masks every byte's zero low and high nibble into K1 and K2, which are
// counted with KMOVQ and POPCNTQ. Reads n*vecs*64 bytes of lo and of
// stage-1 survivors' hi, vecs*64 of qlo and qhi; writes at most n
// survivors.
TEXT ·survivorsAVX512(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         lo+8(FP), SI
	MOVQ         qlo+24(FP), DX
	MOVQ         n+40(FP), CX
	MOVQ         vecs+48(FP), R8
	MOVQ         minCount+56(FP), R13
	MOVQ         $0x0f0f0f0f0f0f0f0f, AX
	VPBROADCASTQ AX, Z14
	VPSLLQ       $4, Z14, Z15
	XORQ         BX, BX                  // survivors so far
	XORQ         R11, R11                // row offset in the block

lo512:
	XORQ AX, AX
	MOVQ DX, R10
	MOVQ R8, R9

lo512vec:
	VMOVDQU64 (SI), Z0
	VPXORQ    (R10), Z0, Z0
	VPTESTNMB Z14, Z0, K1
	VPTESTNMB Z15, Z0, K2
	KMOVQ     K1, R12
	POPCNTQ   R12, R12
	ADDQ      R12, AX
	KMOVQ     K2, R12
	POPCNTQ   R12, R12
	ADDQ      R12, AX
	ADDQ      $64, SI
	ADDQ      $64, R10
	DECQ      R9
	JNZ       lo512vec

	MOVL R11, (DI)(BX*8)
	CMPQ AX, R13
	SBBQ $-1, BX
	INCQ R11
	CMPQ R11, CX
	JLT  lo512

	MOVQ  BX, ret+64(FP)
	TESTQ BX, BX
	JZ    done512

	// Stage 2 indexes each plane from the end of the row with R10 running
	// from -rowbytes up to 0, so one register steps all four streams.
	MOVQ lo+8(FP), SI
	MOVQ hi+16(FP), R11
	MOVQ qhi+32(FP), R12
	SHLQ $6, R8
	ADDQ R8, DX
	ADDQ R8, R12
	NEGQ R8
	XORQ CX, CX

exact512:
	MOVL  (DI)(CX*8), AX
	INCQ  AX
	IMULQ R8, AX
	MOVQ  SI, R9
	SUBQ  AX, R9                         // end of the row's lo
	NEGQ  AX
	ADDQ  R11, AX                        // end of the row's hi
	MOVQ  R8, R10
	XORQ  R13, R13

exact512vec:
	VMOVDQU64 (R9)(R10*1), Z0
	VPXORQ    (DX)(R10*1), Z0, Z0
	VMOVDQU64 (AX)(R10*1), Z1
	VPXORQ    (R12)(R10*1), Z1, Z1
	VPORQ     Z1, Z0, Z0
	VPTESTNMB Z14, Z0, K1
	VPTESTNMB Z15, Z0, K2
	KMOVQ     K1, BX
	POPCNTQ   BX, BX
	ADDQ      BX, R13
	KMOVQ     K2, BX
	POPCNTQ   BX, BX
	ADDQ      BX, R13
	ADDQ      $64, R10
	JNZ       exact512vec

	MOVL R13, 4(DI)(CX*8)
	INCQ CX
	CMPQ CX, ret+64(FP)
	JLT  exact512

done512:
	VZEROUPPER
	RET

// ZERONIBBLES adds, per byte position of acc, the number of zero
// nibbles (0, 1 or 2) in the same byte of x: VPAND with the 0x0F (Y14)
// and 0xF0 (Y15) masks, VPCMPEQB against zero (Y13) gives 0xFF per zero
// nibble, and subtracting that adds one. Clobbers Y5.
#define ZERONIBBLES(x, acc) \
	VPAND    Y14, x, Y5;   \
	VPCMPEQB Y13, Y5, Y5;  \
	VPSUBB   Y5, acc, acc; \
	VPAND    Y15, x, Y5;   \
	VPCMPEQB Y13, Y5, Y5;  \
	VPSUBB   Y5, acc, acc

// ROWSUM sums acc's 32 byte counters into r with one VPSADBW against
// zero and a fold of its four partial sums. xacc is acc's low half.
// Clobbers X6.
#define ROWSUM(acc, xacc, r) \
	VPSADBW      Y13, acc, acc; \
	VEXTRACTI128 $1, acc, X6;   \
	VPADDQ       X6, xacc, xacc; \
	VPSRLDQ      $8, xacc, X6;  \
	VPADDQ       X6, xacc, xacc; \
	MOVQ         xacc, r

// KEEP stores row offset R11 at dst[BX], keeps it if count r reaches
// minCount R13, and moves to the next row.
#define KEEP(r) \
	MOVL R11, (DI)(BX*8); \
	CMPQ r, R13;          \
	SBBQ $-1, BX;         \
	INCQ R11

// func survivorsAVX2(dst *survivor, lo, hi, qlo, qhi *uint64, n, vecs, minCount int) int
//
// Per 32 bytes: VPXOR, then ZERONIBBLES; one ROWSUM per row. Each vector
// adds at most 2 to a byte counter, so vecs <= 127 cannot wrap one.
// Stage 1 takes rows in pairs, sharing each query load, and a last odd
// row alone. Reads n*vecs*32 bytes of lo and of stage-1 survivors' hi,
// vecs*32 of qlo and qhi; writes at most n survivors.
TEXT ·survivorsAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         lo+8(FP), SI
	MOVQ         qlo+24(FP), DX
	MOVQ         n+40(FP), CX
	MOVQ         vecs+48(FP), R8
	MOVQ         minCount+56(FP), R13
	MOVQ         R8, R12
	SHLQ         $5, R12                 // row bytes
	MOVQ         $0x0f0f0f0f0f0f0f0f, AX
	MOVQ         AX, X14
	VPBROADCASTQ X14, Y14
	VPSLLQ       $4, Y14, Y15
	VPXOR        Y13, Y13, Y13
	XORQ         BX, BX                  // survivors so far
	XORQ         R11, R11                // row offset in the block

pair2:
	LEAQ  1(R11), AX
	CMPQ  AX, CX
	JGE   odd2
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  DX, R10
	MOVQ  R8, R9

pair2vec:
	VMOVDQU (R10), Y2
	VPXOR   (SI), Y2, Y3
	VPXOR   (SI)(R12*1), Y2, Y4
	ZERONIBBLES(Y3, Y0)
	ZERONIBBLES(Y4, Y1)
	ADDQ    $32, SI
	ADDQ    $32, R10
	DECQ    R9
	JNZ     pair2vec

	ADDQ R12, SI
	ROWSUM(Y0, X0, AX)
	KEEP(AX)
	ROWSUM(Y1, X1, AX)
	KEEP(AX)
	JMP  pair2

odd2:
	CMPQ  R11, CX
	JGE   stage2
	VPXOR Y0, Y0, Y0
	MOVQ  DX, R10
	MOVQ  R8, R9

odd2vec:
	VMOVDQU (SI), Y3
	VPXOR   (R10), Y3, Y3
	ZERONIBBLES(Y3, Y0)
	ADDQ    $32, SI
	ADDQ    $32, R10
	DECQ    R9
	JNZ     odd2vec

	ROWSUM(Y0, X0, AX)
	KEEP(AX)

stage2:
	MOVQ  BX, ret+64(FP)
	TESTQ BX, BX
	JZ    done2

	// As in the AVX-512 kernel, R10 runs from -rowbytes up to 0.
	MOVQ lo+8(FP), SI
	MOVQ hi+16(FP), R11
	MOVQ qhi+32(FP), R13
	ADDQ R12, DX
	ADDQ R12, R13
	NEGQ R12
	XORQ CX, CX

exact2:
	MOVL  (DI)(CX*8), AX
	INCQ  AX
	IMULQ R12, AX
	MOVQ  SI, R9
	SUBQ  AX, R9                         // end of the row's lo
	NEGQ  AX
	ADDQ  R11, AX                        // end of the row's hi
	MOVQ  R12, R10
	VPXOR Y0, Y0, Y0

exact2vec:
	VMOVDQU (R9)(R10*1), Y3
	VPXOR   (DX)(R10*1), Y3, Y3
	VMOVDQU (AX)(R10*1), Y4
	VPXOR   (R13)(R10*1), Y4, Y4
	VPOR    Y4, Y3, Y3
	ZERONIBBLES(Y3, Y0)
	ADDQ    $32, R10
	JNZ     exact2vec

	ROWSUM(Y0, X0, BX)
	MOVL BX, 4(DI)(CX*8)
	INCQ CX
	CMPQ CX, ret+64(FP)
	JLT  exact2

done2:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
