#include "textflag.h"

// Kernels behind Add, Norm2SqDiff, Norms, AddNorms and AddGatherRows.
// They use AVX instructions only and run where cpuHasAVX2 reports AVX2
// (which implies AVX). Each YMM register holds four doubles, one per
// accumulator of the Go loops (lane k is s_k, the elements with
// i mod 4 == k), and every operation is the Go loop's own: a separate
// VMULPD and VADDPD (never FMA), the accumulator as the first operand of
// its add, the difference taken in the Go loop's operand order. The
// reductions process the multiple-of-four prefix and return their lanes;
// the Go caller finishes the 1-3 element tail and the final
// (s0+s1)+(s2+s3).

// Lane masks for the VMASKMOVPD tail of addGatherRowsAVX2: entry r
// (32 bytes at offset 32*r) enables the low r lanes.
DATA tailmask<>+0(SB)/8, $0
DATA tailmask<>+8(SB)/8, $0
DATA tailmask<>+16(SB)/8, $0
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
DATA tailmask<>+64(SB)/8, $-1
DATA tailmask<>+72(SB)/8, $-1
DATA tailmask<>+80(SB)/8, $0
DATA tailmask<>+88(SB)/8, $0
DATA tailmask<>+96(SB)/8, $-1
DATA tailmask<>+104(SB)/8, $-1
DATA tailmask<>+112(SB)/8, $-1
DATA tailmask<>+120(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $128

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	// OSXSAVE (bit 27) and AVX (bit 28).
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// The OS must save XMM (bit 1) and YMM (bit 2) state.
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	// AVX2 (leaf 7, EBX bit 5).
	BTL  $5, BX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func addAVX2(dst, x []float64)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI

add16:
	CMPQ    CX, $16
	JLT     add4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VADDPD  (SI), Y0, Y0
	VADDPD  32(SI), Y1, Y1
	VADDPD  64(SI), Y2, Y2
	VADDPD  96(SI), Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	JMP     add16

add4:
	CMPQ    CX, $4
	JLT     add1
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $4, CX
	JMP     add4

add1:
	TESTQ  CX, CX
	JZ     addDone
	VMOVSD (DI), X0
	VADDSD (SI), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func norm2SqDiffAVX2(a, b []float64, s *[4]float64)
// Lanes of s = Σ (a-b)² over the first len(a)&^3 elements, per i mod 4.
TEXT ·norm2SqDiffAVX2(SB), NOSPLIT, $0-56
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	MOVQ   s+48(FP), DX
	VXORPD Y0, Y0, Y0
	SHRQ   $2, CX
	JZ     n2dDone

n2dLoop:
	VMOVUPD (SI), Y1
	VSUBPD  (DI), Y1, Y1
	VMULPD  Y1, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     n2dLoop

n2dDone:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func normsAVX2(c, p []float64, s, t *[4]float64)
// Lanes of s = Σ c², of t = Σ (p-c)², over the first len(c)&^3 elements.
TEXT ·normsAVX2(SB), NOSPLIT, $0-64
	MOVQ   c_base+0(FP), SI
	MOVQ   c_len+8(FP), CX
	MOVQ   p_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SHRQ   $2, CX
	JZ     normsDone

normsLoop:
	VMOVUPD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD  Y2, Y2, Y4
	VADDPD  Y4, Y0, Y0
	VSUBPD  Y2, Y3, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y1, Y1
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     normsLoop

normsDone:
	MOVQ    s+48(FP), DX
	VMOVUPD Y0, (DX)
	MOVQ    t+56(FP), DX
	VMOVUPD Y1, (DX)
	VZEROUPPER
	RET

// func addNormsAVX2(dst, x, p []float64, s, t *[4]float64)
// dst += x over the first len(dst)&^3 elements; lanes of s = Σ dst², of
// t = Σ (p-dst)², of the updated dst.
TEXT ·addNormsAVX2(SB), NOSPLIT, $0-88
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	MOVQ   p_base+48(FP), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SHRQ   $2, CX
	JZ     anDone

anLoop:
	VMOVUPD (DI), Y2
	VADDPD  (SI), Y2, Y2
	VMOVUPD Y2, (DI)
	VMULPD  Y2, Y2, Y4
	VADDPD  Y4, Y0, Y0
	VMOVUPD (R8), Y3
	VSUBPD  Y2, Y3, Y3
	VMULPD  Y3, Y3, Y3
	VADDPD  Y3, Y1, Y1
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     anLoop

anDone:
	MOVQ    s+72(FP), DX
	VMOVUPD Y0, (DX)
	MOVQ    t+80(FP), DX
	VMOVUPD Y1, (DX)
	VZEROUPPER
	RET

// func addGatherRowsAVX2(dst, src []float64, rows []int32, stride int)
// dst[c] += src[rows[0]*stride+c] + ... in row order, each coordinate a
// lane. Thirty-two coordinates (eight registers, enough independent adds
// to cover the add latency) are held while the rows stream past, then
// sixteen, then four, then the 1-3 last under a VMASKMOVPD mask, which
// neither reads nor writes the lanes it masks off. The caller has
// checked every row against len(src).
TEXT ·addGatherRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), R11
	MOVQ rows_base+48(FP), R8
	MOVQ rows_len+56(FP), R9
	MOVQ stride+72(FP), R10

gather32:
	CMPQ    CX, $32
	JLT     gather16
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	XORQ    BX, BX

rows32:
	CMPQ    BX, R9
	JGE     store32
	MOVLQSX (R8)(BX*4), AX
	IMULQ   R10, AX
	VADDPD  (R11)(AX*8), Y0, Y0
	VADDPD  32(R11)(AX*8), Y1, Y1
	VADDPD  64(R11)(AX*8), Y2, Y2
	VADDPD  96(R11)(AX*8), Y3, Y3
	VADDPD  128(R11)(AX*8), Y4, Y4
	VADDPD  160(R11)(AX*8), Y5, Y5
	VADDPD  192(R11)(AX*8), Y6, Y6
	VADDPD  224(R11)(AX*8), Y7, Y7
	INCQ    BX
	JMP     rows32

store32:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, R11
	SUBQ    $32, CX
	JMP     gather32

gather16:
	CMPQ    CX, $16
	JLT     gather4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    BX, BX

rows16:
	CMPQ    BX, R9
	JGE     store16
	MOVLQSX (R8)(BX*4), AX
	IMULQ   R10, AX
	VADDPD  (R11)(AX*8), Y0, Y0
	VADDPD  32(R11)(AX*8), Y1, Y1
	VADDPD  64(R11)(AX*8), Y2, Y2
	VADDPD  96(R11)(AX*8), Y3, Y3
	INCQ    BX
	JMP     rows16

store16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R11
	SUBQ    $16, CX
	// Fewer than 32 were left, so the 16-wide block runs at most once.

gather4:
	CMPQ    CX, $4
	JLT     gatherTail
	VMOVUPD (DI), Y0
	XORQ    BX, BX

rows4:
	CMPQ    BX, R9
	JGE     store4
	MOVLQSX (R8)(BX*4), AX
	IMULQ   R10, AX
	VADDPD  (R11)(AX*8), Y0, Y0
	INCQ    BX
	JMP     rows4

store4:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R11
	SUBQ    $4, CX
	JMP     gather4

gatherTail:
	TESTQ      CX, CX
	JZ         gatherDone
	SHLQ       $5, CX
	LEAQ       tailmask<>(SB), DX
	VMOVUPD    (DX)(CX*1), Y5
	VMASKMOVPD (DI), Y5, Y0
	XORQ       BX, BX

rowsTail:
	CMPQ       BX, R9
	JGE        storeTail
	MOVLQSX    (R8)(BX*4), AX
	IMULQ      R10, AX
	VMASKMOVPD (R11)(AX*8), Y5, Y1
	VADDPD     Y1, Y0, Y0
	INCQ       BX
	JMP        rowsTail

storeTail:
	VMASKMOVPD Y0, Y5, (DI)

gatherDone:
	VZEROUPPER
	RET
