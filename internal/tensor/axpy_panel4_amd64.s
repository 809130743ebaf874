//go:build amd64

#include "textflag.h"

// func axpyPanel4AVX(dst, a, b *float32, rows, offs *int, aCol, k, n int)
// Four-destination-row panel: for r in 0..3, j < n,
//   dst[r*n+j] += sum_{p<k} a[rows[r] + p*aCol] * b[offs[p]+j]
// Each destination row owns its accumulators, so per element the products
// still arrive in ascending p order with one VMULPS and one VADDPS rounding
// per step — bit-identical to four axpyPanelAVX calls — while every b row is
// loaded once for all four destinations (4x less b traffic, the reason this
// kernel exists). Zero coefficients are not special-cased here: adding the
// exact +-0 products is the reference semantics the skip elsewhere shortcuts.
//
// Register map: DI=dst R10=aCol*4 CX=offs end R8=n R9=j R15=n*4
//               SI R14 AX DX = a+rows[0..3]*4 R11=coefficient cursor
//               R12=b+j R13=p-k (counts up to 0; scratch outside the p loop)
//               BX=dst row0+j ptr, then offs[p] in the p loop
// Accumulators: rows 0..3 = (Y1,Y2) (Y5,Y6) (Y7,Y8) (Y9,Y10); b=Y3,Y4;
//               coefficient broadcast Y0; products Y11,Y12.
TEXT ·axpyPanel4AVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ rows+24(FP), BX
	MOVQ (BX), SI
	LEAQ (AX)(SI*4), SI
	MOVQ 8(BX), R14
	LEAQ (AX)(R14*4), R14
	MOVQ 24(BX), DX
	LEAQ (AX)(DX*4), DX
	MOVQ 16(BX), BX
	LEAQ (AX)(BX*4), AX
	MOVQ aCol+40(FP), R10
	SHLQ $2, R10
	MOVQ offs+32(FP), CX
	MOVQ k+48(FP), R13
	LEAQ (CX)(R13*8), CX
	MOVQ n+56(FP), R8
	MOVQ R8, R15
	SHLQ $2, R15
	XORQ R9, R9

j16:
	MOVQ R8, R13
	SUBQ R9, R13
	CMPQ R13, $16
	JLT  j8
	LEAQ    (DI)(R9*4), BX
	VMOVUPS (BX), Y1
	VMOVUPS 32(BX), Y2
	VMOVUPS (BX)(R15*1), Y5
	VMOVUPS 32(BX)(R15*1), Y6
	VMOVUPS (BX)(R15*2), Y7
	VMOVUPS 32(BX)(R15*2), Y8
	LEAQ    (BX)(R15*2), R13
	VMOVUPS (R13)(R15*1), Y9
	VMOVUPS 32(R13)(R15*1), Y10
	XORQ    R11, R11
	MOVQ    b+16(FP), R12
	LEAQ    (R12)(R9*4), R12
	MOVQ    k+48(FP), R13
	NEGQ    R13

	PCALIGN $32
p16:
	MOVQ         (CX)(R13*8), BX
	VMOVUPS      (R12)(BX*4), Y3
	VMOVUPS      32(R12)(BX*4), Y4
	VBROADCASTSS (SI)(R11*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y1, Y1
	VMULPS       Y0, Y4, Y12
	VADDPS       Y12, Y2, Y2
	VBROADCASTSS (R14)(R11*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y5, Y5
	VMULPS       Y0, Y4, Y12
	VADDPS       Y12, Y6, Y6
	VBROADCASTSS (AX)(R11*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y7, Y7
	VMULPS       Y0, Y4, Y12
	VADDPS       Y12, Y8, Y8
	VBROADCASTSS (DX)(R11*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y9, Y9
	VMULPS       Y0, Y4, Y12
	VADDPS       Y12, Y10, Y10
	ADDQ         R10, R11
	INCQ         R13
	JNZ          p16
	LEAQ    (DI)(R9*4), BX
	VMOVUPS Y1, (BX)
	VMOVUPS Y2, 32(BX)
	VMOVUPS Y5, (BX)(R15*1)
	VMOVUPS Y6, 32(BX)(R15*1)
	VMOVUPS Y7, (BX)(R15*2)
	VMOVUPS Y8, 32(BX)(R15*2)
	LEAQ    (BX)(R15*2), R13
	VMOVUPS Y9, (R13)(R15*1)
	VMOVUPS Y10, 32(R13)(R15*1)
	ADDQ    $16, R9
	JMP     j16

j8:
	MOVQ R8, R13
	SUBQ R9, R13
	CMPQ R13, $8
	JLT  jscalar
	LEAQ    (DI)(R9*4), BX
	VMOVUPS (BX), Y1
	VMOVUPS (BX)(R15*1), Y5
	VMOVUPS (BX)(R15*2), Y7
	LEAQ    (BX)(R15*2), R13
	VMOVUPS (R13)(R15*1), Y9
	XORQ    R11, R11
	MOVQ    b+16(FP), R12
	LEAQ    (R12)(R9*4), R12
	MOVQ    k+48(FP), R13
	NEGQ    R13

p8:
	MOVQ         (CX)(R13*8), BX
	VMOVUPS      (R12)(BX*4), Y3
	VBROADCASTSS (SI)(R11*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y1, Y1
	VBROADCASTSS (R14)(R11*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y5, Y5
	VBROADCASTSS (AX)(R11*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y7, Y7
	VBROADCASTSS (DX)(R11*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y9, Y9
	ADDQ         R10, R11
	INCQ         R13
	JNZ          p8
	LEAQ    (DI)(R9*4), BX
	VMOVUPS Y1, (BX)
	VMOVUPS Y5, (BX)(R15*1)
	VMOVUPS Y7, (BX)(R15*2)
	LEAQ    (BX)(R15*2), R13
	VMOVUPS Y9, (R13)(R15*1)
	ADDQ    $8, R9

jscalar:
	CMPQ R9, R8
	JGE  done
	LEAQ   (DI)(R9*4), BX
	VMOVSS (BX), X1
	VMOVSS (BX)(R15*1), X5
	VMOVSS (BX)(R15*2), X7
	LEAQ   (BX)(R15*2), R13
	VMOVSS (R13)(R15*1), X9
	XORQ   R11, R11
	MOVQ   b+16(FP), R12
	LEAQ   (R12)(R9*4), R12
	MOVQ   k+48(FP), R13
	NEGQ   R13

pscalar:
	MOVQ   (CX)(R13*8), BX
	VMOVSS (R12)(BX*4), X3
	VMOVSS (SI)(R11*1), X0
	VMULSS X0, X3, X11
	VADDSS X11, X1, X1
	VMOVSS (R14)(R11*1), X0
	VMULSS X0, X3, X11
	VADDSS X11, X5, X5
	VMOVSS (AX)(R11*1), X0
	VMULSS X0, X3, X11
	VADDSS X11, X7, X7
	VMOVSS (DX)(R11*1), X0
	VMULSS X0, X3, X11
	VADDSS X11, X9, X9
	ADDQ   R10, R11
	INCQ   R13
	JNZ    pscalar
	LEAQ   (DI)(R9*4), BX
	VMOVSS X1, (BX)
	VMOVSS X5, (BX)(R15*1)
	VMOVSS X7, (BX)(R15*2)
	LEAQ   (BX)(R15*2), R13
	VMOVSS X9, (R13)(R15*1)
	INCQ   R9
	JMP    jscalar

done:
	VZEROUPPER
	RET
