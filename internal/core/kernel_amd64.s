//go:build amd64 && !purego

#include "textflag.h"

// The vector kernels behind matchSurvivors (kernel.go), over one arena
// chunk of bit-sliced rows: column c of the chunk (word j of plane p,
// c = p*w + j) holds that word for every row, 8 bytes a row, so a
// column's run of rows is 2048 bytes (sweepBlock rows) long, and a group
// of rows is one vector load per column. A slot is ruled out when any
// plane's bit differs from the query's; a row survives while the slots
// ruled out so far stay within limit (64w - minCount). Each kernel checks
// a group after plane 0, after planes 0-1 and after all four, starting at
// the check `from` names (its plane count: 1, 2 or 4), and moves to the
// next group as soon as no row in it can survive.

// Per-lane row offsets within a group, and the popcount of every nibble.
DATA lanes8<>+0(SB)/8, $0
DATA lanes8<>+8(SB)/8, $1
DATA lanes8<>+16(SB)/8, $2
DATA lanes8<>+24(SB)/8, $3
DATA lanes8<>+32(SB)/8, $4
DATA lanes8<>+40(SB)/8, $5
DATA lanes8<>+48(SB)/8, $6
DATA lanes8<>+56(SB)/8, $7
GLOBL lanes8<>(SB), RODATA|NOPTR, $64

DATA popcnt4<>+0(SB)/8, $0x0302020102010100
DATA popcnt4<>+8(SB)/8, $0x0403030203020201
DATA popcnt4<>+16(SB)/8, $0x0302020102010100
DATA popcnt4<>+24(SB)/8, $0x0403030203020201
GLOBL popcnt4<>(SB), RODATA|NOPTR, $32

// A column of a chunk is only 2048 bytes, too short a stream for the
// hardware prefetcher to find before it ends, so every plane loop
// prefetches each column it reads 1024 bytes (16 groups) ahead.

// Register use in both kernels: DI dst, SI the group's first row in
// column 0, DX q, R12 the end of q's plane 0, R14 and R15 one plane's
// stride in the chunk (w*2048) and in q (w*8), R9 and R10 the column
// and query word a plane loop is at, R11 the group's first row, BX the
// survivors so far, CX the rows left (AVX-512) or the group's live rows
// (AVX2), AX and R13 scratch.

// func survivorsAVX512(dst *survivor, chunk, q *uint64, n, w, limit, from int) int
//
// Eight rows a group: per column one VMOVDQU64, a VPXORQ against the
// query word broadcast, VPORQ across planes and one VPOPCNTQ, summed per
// row; VPCMPUQ against limit narrows K1, the group's live rows. The
// survivors' {offset, count} pairs are packed with VPCOMPRESSQ: into a
// register and stored whole for a full group (its 8 entries end at or
// before dst[n]), straight to memory for the last, partial one. Reads
// each column's first n rows rounded up to 8; writes at most n
// survivors.
TEXT ·survivorsAVX512(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         chunk+8(FP), SI
	MOVQ         q+16(FP), DX
	MOVQ         w+32(FP), R8
	MOVQ         limit+40(FP), AX
	VPBROADCASTQ AX, Z31
	MOVQ         R8, AX
	SHLQ         $6, AX
	VPBROADCASTQ AX, Z29                 // 64w: a plane's bits
	VMOVDQU64    lanes8<>(SB), Z30
	MOVQ         R8, R14
	SHLQ         $11, R14
	MOVQ         R8, R15
	SHLQ         $3, R15
	LEAQ         (DX)(R15*1), R12
	MOVL         $0xff, AX
	KMOVW        AX, K6
	XORQ         BX, BX
	XORQ         R11, R11

group512:
	KMOVW K6, K1
	MOVQ  n+24(FP), CX
	SUBQ  R11, CX                        // rows left, kept for the store
	CMPQ  CX, $8
	JGE   dispatch512
	MOVL  $1, AX
	SHLL  CL, AX
	DECL  AX
	KMOVW AX, K1                         // the last group's rows

dispatch512:
	CMPQ   from+48(FP), $2
	JEQ    planes01_512
	JGT    planes0123_512
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R9
	MOVQ   DX, R10

p0_512:
	PREFETCHT0  1024(R9)
	VMOVDQU64   (R9), Z1
	VPXORQ.BCST (R10), Z1, Z1
	VPOPCNTQ    Z1, Z1
	VPADDQ      Z1, Z0, Z0
	ADDQ        $2048, R9
	ADDQ        $8, R10
	CMPQ        R10, R12
	JNE         p0_512
	VPCMPUQ     $2, Z31, Z0, K1, K1      // ruled out <= limit
	KORTESTW    K1, K1
	JZ          next512

planes01_512:
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R9
	MOVQ   DX, R10

p01_512:
	PREFETCHT0  1024(R9)
	PREFETCHT0  1024(R9)(R14*1)
	VMOVDQU64   (R9), Z1
	VPXORQ.BCST (R10), Z1, Z1
	VMOVDQU64   (R9)(R14*1), Z2
	VPXORQ.BCST (R10)(R15*1), Z2, Z2
	VPORQ       Z2, Z1, Z1
	VPOPCNTQ    Z1, Z1
	VPADDQ      Z1, Z0, Z0
	ADDQ        $2048, R9
	ADDQ        $8, R10
	CMPQ        R10, R12
	JNE         p01_512
	VPCMPUQ     $2, Z31, Z0, K1, K1
	KORTESTW    K1, K1
	JZ          next512

planes0123_512:
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R9
	MOVQ   DX, R10

p0123_512:
	PREFETCHT0  1024(R9)
	PREFETCHT0  1024(R9)(R14*1)
	PREFETCHT0  1024(R9)(R14*2)
	VMOVDQU64   (R9), Z1
	VPXORQ.BCST (R10), Z1, Z1
	VMOVDQU64   (R9)(R14*1), Z2
	VPXORQ.BCST (R10)(R15*1), Z2, Z2
	VPORQ       Z2, Z1, Z1
	VMOVDQU64   (R9)(R14*2), Z2
	VPXORQ.BCST (R10)(R15*2), Z2, Z2
	VPORQ       Z2, Z1, Z1
	LEAQ        (R9)(R14*2), AX
	LEAQ        (R10)(R15*2), R13
	PREFETCHT0  1024(AX)(R14*1)
	VMOVDQU64   (AX)(R14*1), Z2
	VPXORQ.BCST (R13)(R15*1), Z2, Z2
	VPORQ       Z2, Z1, Z1
	VPOPCNTQ    Z1, Z1
	VPADDQ      Z1, Z0, Z0
	ADDQ        $2048, R9
	ADDQ        $8, R10
	CMPQ        R10, R12
	JNE         p0123_512
	VPCMPUQ     $2, Z31, Z0, K1, K1
	KORTESTW    K1, K1
	JZ          next512

	VPSUBQ       Z0, Z29, Z0             // equal nibbles
	VPSLLQ       $32, Z0, Z0
	VPBROADCASTQ R11, Z1
	VPADDQ       Z30, Z1, Z1
	VPORQ        Z1, Z0, Z0              // {offset, count}, as survivor
	KMOVW        K1, AX
	POPCNTL      AX, AX
	CMPQ         CX, $8
	JLT          tail512
	VPCOMPRESSQ  Z0, K1, Z1
	VMOVDQU64    Z1, (DI)(BX*8)
	ADDQ         AX, BX
	JMP          next512

tail512:
	VPCOMPRESSQ Z0, K1, (DI)(BX*8)
	ADDQ        AX, BX

next512:
	ADDQ $64, SI
	ADDQ $8, R11
	CMPQ R11, n+24(FP)
	JLT  group512

	MOVQ BX, ret+56(FP)
	VZEROUPPER
	RET

// POPCNT4 adds the popcount of each quadword of x to the same quadword
// of acc: a VPSHUFB lookup per nibble (Y15 the table, Y14 0x0F bytes),
// and VPSADBW against zero (Y13) to sum each quadword's bytes. Clobbers
// x and t.
#define POPCNT4(x, t, acc) \
	VPSRLW  $4, x, t;   \
	VPAND   Y14, x, x;  \
	VPAND   Y14, t, t;  \
	VPSHUFB x, Y15, x;  \
	VPSHUFB t, Y15, t;  \
	VPADDB  t, x, x;    \
	VPSADBW Y13, x, x;  \
	VPADDQ  x, acc, acc

// XOR2 sets a and b to the group's two halves of a column, at lo and
// hi, XORed with the query word at qmem (broadcast into Y3).
#define XOR2(lo, hi, qmem, a, b) \
	VPBROADCASTQ qmem, Y3;  \
	VPXOR        lo, Y3, a; \
	VPXOR        hi, Y3, b

// OR2 ORs into Y1 and Y5 the group's column at lo and hi XORed with the
// query word at qmem. Clobbers Y2, Y3 and Y6.
#define OR2(lo, hi, qmem) \
	XOR2(lo, hi, qmem, Y2, Y6); \
	VPOR Y2, Y1, Y1;         \
	VPOR Y6, Y5, Y5

// COUNT2 adds Y1's and Y5's popcounts to the group's two halves, Y0 and
// Y4, and moves R9 and R10 to the next word.
#define COUNT2 \
	POPCNT4(Y1, Y2, Y0); \
	POPCNT4(Y5, Y6, Y4); \
	ADDQ $2048, R9;      \
	ADDQ $8, R10

// NARROW clears from CX, the group's live rows, every row whose count in
// Y0 (rows 0-3) or Y4 (rows 4-7) passes limit (Y12), and moves to the
// next group when none is left. Clobbers AX and R13.
#define NARROW \
	VPCMPGTQ  Y12, Y0, Y1; \
	VPCMPGTQ  Y12, Y4, Y5; \
	VMOVMSKPD Y1, AX;      \
	VMOVMSKPD Y5, R13;     \
	SHLL      $4, R13;     \
	ORL       R13, AX;     \
	NOTL      AX;          \
	ANDL      AX, CX;      \
	JZ        next2

// LEVEL2 zeroes the group's counts and points R9 and R10 at its first
// column and query word.
#define LEVEL2 \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y4, Y4, Y4; \
	MOVQ  SI, R9;     \
	MOVQ  DX, R10

// func survivorsAVX2(dst *survivor, chunk, q *uint64, n, w, limit, from int) int
//
// Eight rows a group, as two halves of four: per column a VPXOR of each
// half against the query word broadcast, VPOR across planes and POPCNT4;
// NARROW after each check. The group's counts are spilled to the frame
// and the survivors written one by one. Reads each column's first n rows
// rounded up to 8; writes at most n survivors.
TEXT ·survivorsAVX2(SB), NOSPLIT, $64-64
	MOVQ         dst+0(FP), DI
	MOVQ         chunk+8(FP), SI
	MOVQ         q+16(FP), DX
	MOVQ         w+32(FP), R8
	MOVQ         limit+40(FP), AX
	MOVQ         AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ         $0x0f0f0f0f0f0f0f0f, AX
	MOVQ         AX, X14
	VPBROADCASTQ X14, Y14
	VMOVDQU      popcnt4<>(SB), Y15
	VPXOR        Y13, Y13, Y13
	MOVQ         R8, R14
	SHLQ         $11, R14
	MOVQ         R8, R15
	SHLQ         $3, R15
	LEAQ         (DX)(R15*1), R12
	SHLQ         $6, R8                  // 64w: a plane's bits
	XORQ         BX, BX
	XORQ         R11, R11

group2:
	MOVQ n+24(FP), CX
	SUBQ R11, CX
	CMPQ CX, $8
	JGE  full2
	MOVL $1, AX
	SHLL CL, AX
	DECL AX
	MOVL AX, CX                          // the last group's rows
	JMP  dispatch2

full2:
	MOVL $0xff, CX

dispatch2:
	LEVEL2
	CMPQ from+48(FP), $2
	JEQ  p01_2
	JGT  p0123_2

p0_2:
	PREFETCHT0 1024(R9)
	XOR2((R9), 32(R9), (R10), Y1, Y5)
	COUNT2
	CMPQ R10, R12
	JNE  p0_2
	NARROW
	LEVEL2

p01_2:
	PREFETCHT0 1024(R9)
	PREFETCHT0 1024(R9)(R14*1)
	XOR2((R9), 32(R9), (R10), Y1, Y5)
	OR2((R9)(R14*1), 32(R9)(R14*1), (R10)(R15*1))
	COUNT2
	CMPQ R10, R12
	JNE  p01_2
	NARROW
	LEVEL2

p0123_2:
	PREFETCHT0 1024(R9)
	PREFETCHT0 1024(R9)(R14*1)
	PREFETCHT0 1024(R9)(R14*2)
	XOR2((R9), 32(R9), (R10), Y1, Y5)
	OR2((R9)(R14*1), 32(R9)(R14*1), (R10)(R15*1))
	OR2((R9)(R14*2), 32(R9)(R14*2), (R10)(R15*2))
	LEAQ (R9)(R14*2), AX
	LEAQ (R10)(R15*2), R13
	PREFETCHT0 1024(AX)(R14*1)
	OR2((AX)(R14*1), 32(AX)(R14*1), (R13)(R15*1))
	COUNT2
	CMPQ R10, R12
	JNE  p0123_2
	NARROW

	VMOVDQU Y0, (SP)
	VMOVDQU Y4, 32(SP)

emit2:
	BSFL CX, R9                          // next surviving row of the group
	MOVQ R8, R10
	SUBQ (SP)(R9*8), R10                 // its equal nibbles
	ADDQ R11, R9
	MOVL R9, (DI)(BX*8)
	MOVL R10, 4(DI)(BX*8)
	INCQ BX
	LEAL -1(CX), AX
	ANDL AX, CX
	JNZ  emit2

next2:
	ADDQ $64, SI
	ADDQ $8, R11
	CMPQ R11, n+24(FP)
	JLT  group2

	MOVQ BX, ret+56(FP)
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
