//go:build amd64 && !purego

#include "textflag.h"

// The vector kernels behind matchSurvivors (kernel.go), for rows of
// 4-bit slots, 16 a word. A slot is equal when the XOR of row and query
// is zero in its nibble.
//
// Each kernel counts every row's equal nibbles and stores the row's
// offset and count at dst[k] unconditionally; CMPQ count, minCount sets
// the carry when the count is short and SBBQ $-1 adds 1 minus the carry
// to k, so the store is kept only for a survivor, without a branch. Both
// return k.
//
// func survivorsAVX512(dst *survivor, rows, q *uint64, n, vecs, minCount int) int
//
// Per 64 bytes: VPXORQ, then VPTESTNMB against 0x0F and against 0xF0
// masks every byte's zero low and high nibble into K1 and K2, which are
// counted with KMOVQ and POPCNTQ. Reads n*vecs*64 bytes of rows and
// vecs*64 of q; writes at most n survivors.
TEXT ·survivorsAVX512(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         rows+8(FP), SI
	MOVQ         q+16(FP), DX
	MOVQ         n+24(FP), CX
	MOVQ         vecs+32(FP), R8
	MOVQ         minCount+40(FP), R13
	MOVQ         $0x0f0f0f0f0f0f0f0f, AX
	VPBROADCASTQ AX, Z14
	VPSLLQ       $4, Z14, Z15
	XORQ         BX, BX                  // survivors so far
	XORQ         R11, R11                // row offset in the block

row512:
	XORQ AX, AX
	MOVQ DX, R10
	MOVQ R8, R9

vec512:
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
	JNZ       vec512

	MOVL R11, (DI)(BX*8)
	MOVL AX, 4(DI)(BX*8)
	CMPQ AX, R13
	SBBQ $-1, BX
	INCQ R11
	CMPQ R11, CX
	JLT  row512

	MOVQ BX, ret+48(FP)
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

// KEEP stores row offset R11 and count r at dst[BX], keeps them if r
// reaches minCount R13, and moves to the next row.
#define KEEP(r) \
	MOVL R11, (DI)(BX*8);  \
	MOVL r, 4(DI)(BX*8);   \
	CMPQ r, R13;           \
	SBBQ $-1, BX;          \
	INCQ R11

// func survivorsAVX2(dst *survivor, rows, q *uint64, n, vecs, minCount int) int
//
// Per 32 bytes: VPXOR, then ZERONIBBLES; one ROWSUM per row. Each vector
// adds at most 2 to a byte counter, so vecs <= 127 cannot wrap one. Rows
// go in pairs, sharing each query load, and a last odd row alone. Reads
// n*vecs*32 bytes of rows and vecs*32 of q; writes at most n survivors.
TEXT ·survivorsAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         rows+8(FP), SI
	MOVQ         q+16(FP), DX
	MOVQ         n+24(FP), CX
	MOVQ         vecs+32(FP), R8
	MOVQ         minCount+40(FP), R13
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
	JGE   done2
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

done2:
	MOVQ BX, ret+48(FP)
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
