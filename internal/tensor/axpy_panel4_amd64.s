//go:build amd64

#include "textflag.h"

// func axpyPanel4AVX(dst, a, b *float32, offs *int, aRow, aCol, k, n int)
// Four-destination-row panel: for r in 0..3, j < n,
//   dst[r*n+j] += sum_{p<k} a[r*aRow + p*aCol] * b[offs[p]+j]
// Each destination row owns its accumulators, so per element the products
// still arrive in ascending p order with one VMULPS and one VADDPS rounding
// per step — bit-identical to four axpyPanelAVX calls — while every b row is
// loaded once for all four destinations (4x less b traffic, the reason this
// kernel exists). Zero coefficients are not special-cased here: adding the
// exact +-0 products is the reference semantics the skip elsewhere shortcuts.
//
// Register map: DI=dst SI=a DX=b R14=aRow*4 R10=aCol*4 CX=offs end R8=n
//               R9=j R15=n*4 R11=a cursor R12=b+j R13=p-k (counts up to 0)
//               BX=dst row0+j ptr, then offs[p] in the p loop AX=scratch
// Accumulators: rows 0..3 = (Y1,Y2) (Y5,Y6) (Y7,Y8) (Y9,Y10); b=Y3,Y4;
//               coefficient broadcast Y0; products Y11,Y12.
TEXT ·axpyPanel4AVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ aRow+32(FP), R14
	SHLQ $2, R14
	MOVQ aCol+40(FP), R10
	SHLQ $2, R10
	MOVQ offs+24(FP), CX
	MOVQ k+48(FP), AX
	LEAQ (CX)(AX*8), CX
	MOVQ n+56(FP), R8
	MOVQ R8, R15
	SHLQ $2, R15
	XORQ R9, R9

j16:
	MOVQ R8, AX
	SUBQ R9, AX
	CMPQ AX, $16
	JLT  j8
	LEAQ    (DI)(R9*4), BX
	VMOVUPS (BX), Y1
	VMOVUPS 32(BX), Y2
	VMOVUPS (BX)(R15*1), Y5
	VMOVUPS 32(BX)(R15*1), Y6
	VMOVUPS (BX)(R15*2), Y7
	VMOVUPS 32(BX)(R15*2), Y8
	LEAQ    (BX)(R15*2), AX
	VMOVUPS (AX)(R15*1), Y9
	VMOVUPS 32(AX)(R15*1), Y10
	MOVQ    SI, R11
	LEAQ    (DX)(R9*4), R12
	MOVQ    k+48(FP), R13
	NEGQ    R13

	PCALIGN $32
p16:
	MOVQ         (CX)(R13*8), BX
	VMOVUPS      (R12)(BX*4), Y3
	VMOVUPS      32(R12)(BX*4), Y4
	VBROADCASTSS (R11), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y1, Y1
	VMULPS       Y0, Y4, Y12
	VADDPS       Y12, Y2, Y2
	VBROADCASTSS (R11)(R14*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y5, Y5
	VMULPS       Y0, Y4, Y12
	VADDPS       Y12, Y6, Y6
	LEAQ         (R11)(R14*2), AX
	VBROADCASTSS (AX), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y7, Y7
	VMULPS       Y0, Y4, Y12
	VADDPS       Y12, Y8, Y8
	VBROADCASTSS (AX)(R14*1), Y0
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
	LEAQ    (BX)(R15*2), AX
	VMOVUPS Y9, (AX)(R15*1)
	VMOVUPS Y10, 32(AX)(R15*1)
	ADDQ    $16, R9
	JMP     j16

j8:
	MOVQ R8, AX
	SUBQ R9, AX
	CMPQ AX, $8
	JLT  jscalar
	LEAQ    (DI)(R9*4), BX
	VMOVUPS (BX), Y1
	VMOVUPS (BX)(R15*1), Y5
	VMOVUPS (BX)(R15*2), Y7
	LEAQ    (BX)(R15*2), AX
	VMOVUPS (AX)(R15*1), Y9
	MOVQ    SI, R11
	LEAQ    (DX)(R9*4), R12
	MOVQ    k+48(FP), R13
	NEGQ    R13

p8:
	MOVQ         (CX)(R13*8), BX
	VMOVUPS      (R12)(BX*4), Y3
	VBROADCASTSS (R11), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y1, Y1
	VBROADCASTSS (R11)(R14*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y5, Y5
	LEAQ         (R11)(R14*2), AX
	VBROADCASTSS (AX), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y7, Y7
	VBROADCASTSS (AX)(R14*1), Y0
	VMULPS       Y0, Y3, Y11
	VADDPS       Y11, Y9, Y9
	ADDQ         R10, R11
	INCQ         R13
	JNZ          p8
	LEAQ    (DI)(R9*4), BX
	VMOVUPS Y1, (BX)
	VMOVUPS Y5, (BX)(R15*1)
	VMOVUPS Y7, (BX)(R15*2)
	LEAQ    (BX)(R15*2), AX
	VMOVUPS Y9, (AX)(R15*1)
	ADDQ    $8, R9

jscalar:
	CMPQ R9, R8
	JGE  done
	LEAQ   (DI)(R9*4), BX
	VMOVSS (BX), X1
	VMOVSS (BX)(R15*1), X5
	VMOVSS (BX)(R15*2), X7
	LEAQ   (BX)(R15*2), AX
	VMOVSS (AX)(R15*1), X9
	MOVQ   SI, R11
	LEAQ   (DX)(R9*4), R12
	MOVQ   k+48(FP), R13
	NEGQ   R13

pscalar:
	MOVQ   (CX)(R13*8), BX
	VMOVSS (R12)(BX*4), X3
	VMOVSS (R11), X0
	VMULSS X0, X3, X11
	VADDSS X11, X1, X1
	VMOVSS (R11)(R14*1), X0
	VMULSS X0, X3, X11
	VADDSS X11, X5, X5
	LEAQ   (R11)(R14*2), AX
	VMOVSS (AX), X0
	VMULSS X0, X3, X11
	VADDSS X11, X7, X7
	VMOVSS (AX)(R14*1), X0
	VMULSS X0, X3, X11
	VADDSS X11, X9, X9
	ADDQ   R10, R11
	INCQ   R13
	JNZ    pscalar
	LEAQ   (DI)(R9*4), BX
	VMOVSS X1, (BX)
	VMOVSS X5, (BX)(R15*1)
	VMOVSS X7, (BX)(R15*2)
	LEAQ   (BX)(R15*2), AX
	VMOVSS X9, (AX)(R15*1)
	INCQ   R9
	JMP    jscalar

done:
	VZEROUPPER
	RET
