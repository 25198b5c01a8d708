//go:build amd64 && !purego

#include "textflag.h"

// func matchCounts8AVX2(dst *uint16, rows, q *uint64, n, vecs int)
//
// For each of n rows of vecs 32-byte vectors: compare the row's bytes
// with q's (VPCMPEQB gives 0xFF per equal byte, so subtracting it adds
// one to that byte position's counter), then sum the 32 byte counters
// with one VPSADBW against zero and fold the four partial sums. With
// vecs <= 255 no byte counter can wrap. Reads exactly n*vecs*32 bytes
// from rows and vecs*32 from q; writes n uint16 counts.
TEXT ·matchCounts8AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ q+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ vecs+32(FP), R8
	VPXOR Y15, Y15, Y15

row:
	VPXOR Y0, Y0, Y0
	MOVQ  DX, R10
	MOVQ  R8, R9

vec:
	VMOVDQU  (SI), Y1
	VPCMPEQB (R10), Y1, Y1
	VPSUBB   Y1, Y0, Y0
	ADDQ     $32, SI
	ADDQ     $32, R10
	DECQ     R9
	JNZ      vec

	VPSADBW      Y15, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPSRLDQ      $8, X0, X1
	VPADDQ       X1, X0, X0
	MOVQ         X0, AX
	MOVW         AX, (DI)
	ADDQ         $2, DI
	DECQ         CX
	JNZ          row

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
