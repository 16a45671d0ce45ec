#include "textflag.h"

// Baseline SSE2 only: packed MULPD, ADDPD, SUBPD and DIVPD, each lane one
// IEEE operation the Go loop also performs, on the same operands in the
// same order. Where an operation is commutative, its destination is the
// operand go1.24 makes the destination in matVecGo and stepGo, so that a
// NaN meeting a NaN keeps the same payload too; Go does not promise which
// payload wins, so the tests hold NaNs to being NaN.

// ROWS adds w[ra][j]·x[j] and w[rb][j]·x[j] onto the two lanes of acc, with
// x[j] broadcast in X8, j the byte offset CX and t as scratch. The product's
// destination is the weight, the sum's the accumulator.
#define ROWS(ra, rb, acc, t) \
	MOVSD  (ra)(CX*1), t; \
	MOVHPD (rb)(CX*1), t; \
	MULPD  X8, t; \
	ADDPD  t, acc

// func matVec8(out, start, w, x []float64)
TEXT ·matVec8(SB), NOSPLIT, $0-96
	MOVQ   start_base+24(FP), DI
	MOVQ   w_base+48(FP), AX
	MOVQ   x_base+72(FP), SI
	MOVQ   x_len+80(FP), CX
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	TESTQ  CX, CX
	JZ     done8

	// CX becomes the negated row length in bytes and counts up to zero;
	// every pointer points one row past its start.
	SHLQ   $3, CX
	ADDQ   CX, SI
	ADDQ   CX, AX
	LEAQ   (AX)(CX*1), BX
	LEAQ   (BX)(CX*1), DX
	LEAQ   (DX)(CX*1), R8
	LEAQ   (R8)(CX*1), R9
	LEAQ   (R9)(CX*1), R10
	LEAQ   (R10)(CX*1), R11
	LEAQ   (R11)(CX*1), R12
	NEGQ   CX

loop8:
	MOVSD    (SI)(CX*1), X8
	UNPCKLPD X8, X8
	ROWS(AX, BX, X0, X9)
	ROWS(DX, R8, X1, X10)
	ROWS(R9, R10, X2, X11)
	ROWS(R11, R12, X3, X12)
	ADDQ     $8, CX
	JNZ      loop8

done8:
	MOVQ   out_base+0(FP), DI
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	RET

// func matVec4(out, start, w, x []float64)
TEXT ·matVec4(SB), NOSPLIT, $0-96
	MOVQ   start_base+24(FP), DI
	MOVQ   w_base+48(FP), AX
	MOVQ   x_base+72(FP), SI
	MOVQ   x_len+80(FP), CX
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	TESTQ  CX, CX
	JZ     done4

	SHLQ   $3, CX
	ADDQ   CX, SI
	ADDQ   CX, AX
	LEAQ   (AX)(CX*1), BX
	LEAQ   (BX)(CX*1), DX
	LEAQ   (DX)(CX*1), R8
	NEGQ   CX

loop4:
	MOVSD    (SI)(CX*1), X8
	UNPCKLPD X8, X8
	ROWS(AX, BX, X0, X9)
	ROWS(DX, R8, X1, X10)
	ADDQ     $8, CX
	JNZ      loop4

done4:
	MOVQ   out_base+0(FP), DI
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	RET

// BCAST loads the float64 argument at arg into both lanes of r.
#define BCAST(arg, r) \
	MOVSD    arg, r; \
	UNPCKLPD r, r

// LOGISTIC updates lanes (j, j+1) of one logistic head, with x's elements
// in X10, g.lr in X3, mom in X4 and l2 in X5:
//	va = mom*va - lr*(ga*x + l2*w); w += va
// It leaves the new weights in w, using X12 and X13 as scratch.
#define LOGISTIC(wp, vp, ga, w) \
	MOVUPD (wp)(AX*1), w; \
	MOVAPD w, X12; \
	MULPD  X5, X12; \
	MOVAPD ga, X13; \
	MULPD  X10, X13; \
	ADDPD  X13, X12; \
	MULPD  X3, X12; \
	MOVUPD (vp)(AX*1), X13; \
	MULPD  X4, X13; \
	SUBPD  X12, X13; \
	MOVUPD X13, (vp)(AX*1); \
	ADDPD  X13, w; \
	MOVUPD w, (wp)(AX*1)

// func stepPairs(z *preact, x, next, wa, wb, wc, va, vb []float64, g sgdGrad, mom, l2, n float64)
TEXT ·stepPairs(SB), NOSPLIT, $0-232
	MOVQ   z+0(FP), DI
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   next_base+32(FP), DX
	MOVQ   wa_base+56(FP), R8
	MOVQ   wb_base+80(FP), R9
	MOVQ   wc_base+104(FP), R10
	MOVQ   va_base+128(FP), R11
	MOVQ   vb_base+152(FP), R12
	BCAST(g_a+176(FP), X0)
	BCAST(g_b+184(FP), X1)
	BCAST(g_c+192(FP), X2)
	BCAST(g_lr+200(FP), X3)
	BCAST(mom+208(FP), X4)
	BCAST(l2+216(FP), X5)
	BCAST(n+224(FP), X6)
	MOVQ   $0x3fe0000000000000, AX // lrLin, 0.5
	MOVQ   AX, X7
	UNPCKLPD X7, X7

	// The sums travel in pairs, (z.a, z.b) in X8 and (z.c, z.xx) in X9:
	// preact's field order.
	MOVUPD 0(DI), X8
	MOVUPD 16(DI), X9
	SHRQ   $1, CX
	JZ     donestep
	XORQ   AX, AX

loopstep:
	MOVUPD (SI)(AX*1), X10
	LOGISTIC(R8, R11, X0, X11)
	LOGISTIC(R9, R12, X1, X14)

	// wc -= lrLin * (l2*wc/n + gc*x)
	MOVUPD (R10)(AX*1), X15
	MOVAPD X15, X12
	MULPD  X5, X12
	DIVPD  X6, X12
	MULPD  X2, X10
	ADDPD  X10, X12
	MULPD  X7, X12
	SUBPD  X12, X15
	MOVUPD X15, (R10)(AX*1)

	// The next sample's products, transposed to (a, b) and (c, xx) pairs
	// and added lane 0 (element j) first, then lane 1 (element j+1).
	MOVUPD   (DX)(AX*1), X10
	MULPD    X10, X11
	MULPD    X10, X14
	MULPD    X10, X15
	MULPD    X10, X10
	MOVAPD   X11, X12
	UNPCKLPD X14, X12
	UNPCKHPD X14, X11
	ADDPD    X12, X8
	ADDPD    X11, X8
	MOVAPD   X15, X13
	UNPCKLPD X10, X13
	UNPCKHPD X10, X15
	ADDPD    X13, X9
	ADDPD    X15, X9

	ADDQ $16, AX
	DECQ CX
	JNZ  loopstep

donestep:
	MOVUPD X8, 0(DI)
	MOVUPD X9, 16(DI)
	RET
