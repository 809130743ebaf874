//go:build amd64

#include "textflag.h"

// func axpyPanelAVX(dst, a, b *float32, offs *int, sa, k, n int)
// dst[j] += sum_{p<k} a[p*sa] * b[offs[p]+j] for j < n, ascending p per element,
// one VMULPS and one VADDPS rounding per step (no FMA), b the VMULPS's first
// source. Coefficients whose bits are ±0 skip their b row. Column blocks of
// 64 (eight accumulators, so a batch-1 GEMV tests each coefficient once per
// 64 columns), then 16, then 8, then scalars; the accumulators stay in
// registers across the whole k reduction.
//
// Register map: DI=dst SI=a DX=b R10=sa*4 CX=offs end R14=-k R8=n R9=j
//               R11=a cursor R12=b+j R13=p-k (counts up to 0) BX=offs[p]
TEXT ·axpyPanelAVX(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ sa+32(FP), R10
	SHLQ $2, R10
	MOVQ offs+24(FP), CX
	MOVQ k+40(FP), R14
	LEAQ (CX)(R14*8), CX
	NEGQ R14
	MOVQ n+48(FP), R8
	XORQ R9, R9

j64:
	MOVQ R8, AX
	SUBQ R9, AX
	CMPQ AX, $64
	JLT  j16
	VMOVUPS (DI)(R9*4), Y1
	VMOVUPS 32(DI)(R9*4), Y2
	VMOVUPS 64(DI)(R9*4), Y3
	VMOVUPS 96(DI)(R9*4), Y4
	VMOVUPS 128(DI)(R9*4), Y5
	VMOVUPS 160(DI)(R9*4), Y6
	VMOVUPS 192(DI)(R9*4), Y7
	VMOVUPS 224(DI)(R9*4), Y8
	MOVQ    SI, R11
	LEAQ    (DX)(R9*4), R12
	MOVQ    R14, R13

	PCALIGN $32
p64:
	MOVL (R11), AX
	ADDL AX, AX
	JZ   p64next
	MOVQ         (CX)(R13*8), BX
	LEAQ         (R12)(BX*4), BX // the b row's 64 columns
	VBROADCASTSS (R11), Y0
	VMOVUPS      (BX), Y9
	VMOVUPS      32(BX), Y10
	VMOVUPS      64(BX), Y11
	VMOVUPS      96(BX), Y12
	VMULPS       Y0, Y9, Y9
	VMULPS       Y0, Y10, Y10
	VMULPS       Y0, Y11, Y11
	VMULPS       Y0, Y12, Y12
	VADDPS       Y9, Y1, Y1
	VADDPS       Y10, Y2, Y2
	VADDPS       Y11, Y3, Y3
	VADDPS       Y12, Y4, Y4
	VMOVUPS      128(BX), Y13
	VMOVUPS      160(BX), Y14
	VMOVUPS      192(BX), Y15
	VMOVUPS      224(BX), Y9
	VMULPS       Y0, Y13, Y13
	VMULPS       Y0, Y14, Y14
	VMULPS       Y0, Y15, Y15
	VMULPS       Y0, Y9, Y9
	VADDPS       Y13, Y5, Y5
	VADDPS       Y14, Y6, Y6
	VADDPS       Y15, Y7, Y7
	VADDPS       Y9, Y8, Y8

p64next:
	ADDQ R10, R11
	INCQ R13
	JNZ  p64
	VMOVUPS Y1, (DI)(R9*4)
	VMOVUPS Y2, 32(DI)(R9*4)
	VMOVUPS Y3, 64(DI)(R9*4)
	VMOVUPS Y4, 96(DI)(R9*4)
	VMOVUPS Y5, 128(DI)(R9*4)
	VMOVUPS Y6, 160(DI)(R9*4)
	VMOVUPS Y7, 192(DI)(R9*4)
	VMOVUPS Y8, 224(DI)(R9*4)
	ADDQ    $64, R9
	JMP     j64

j16:
	MOVQ R8, AX
	SUBQ R9, AX
	CMPQ AX, $16
	JLT  j8
	VMOVUPS (DI)(R9*4), Y1
	VMOVUPS 32(DI)(R9*4), Y2
	MOVQ    SI, R11
	LEAQ    (DX)(R9*4), R12
	MOVQ    R14, R13

	PCALIGN $32
p16:
	MOVL (R11), AX
	ADDL AX, AX              // ±0 coefficient: bits<<1 == 0
	JZ   p16next
	MOVQ         (CX)(R13*8), BX
	VBROADCASTSS (R11), Y0
	VMOVUPS      (R12)(BX*4), Y3
	VMOVUPS      32(R12)(BX*4), Y4
	VMULPS       Y0, Y3, Y3
	VMULPS       Y0, Y4, Y4
	VADDPS       Y3, Y1, Y1
	VADDPS       Y4, Y2, Y2

p16next:
	ADDQ R10, R11
	INCQ R13
	JNZ  p16
	VMOVUPS Y1, (DI)(R9*4)
	VMOVUPS Y2, 32(DI)(R9*4)
	ADDQ    $16, R9
	JMP    j16

j8:
	MOVQ R8, AX
	SUBQ R9, AX
	CMPQ AX, $8
	JLT  jscalar
	VMOVUPS (DI)(R9*4), Y1
	MOVQ    SI, R11
	LEAQ    (DX)(R9*4), R12
	MOVQ    R14, R13

p8:
	MOVL (R11), AX
	ADDL AX, AX
	JZ   p8next
	MOVQ         (CX)(R13*8), BX
	VBROADCASTSS (R11), Y0
	VMOVUPS      (R12)(BX*4), Y3
	VMULPS       Y0, Y3, Y3
	VADDPS       Y3, Y1, Y1

p8next:
	ADDQ R10, R11
	INCQ R13
	JNZ  p8
	VMOVUPS Y1, (DI)(R9*4)
	ADDQ    $8, R9

jscalar:
	CMPQ R9, R8
	JGE  done
	VMOVSS (DI)(R9*4), X1
	MOVQ   SI, R11
	LEAQ   (DX)(R9*4), R12
	MOVQ   R14, R13

pscalar:
	MOVL (R11), AX
	ADDL AX, AX
	JZ   pscalarnext
	MOVQ   (CX)(R13*8), BX
	VMOVSS (R11), X0
	VMOVSS (R12)(BX*4), X3
	VMULSS X0, X3, X3
	VADDSS X3, X1, X1

pscalarnext:
	ADDQ R10, R11
	INCQ R13
	JNZ  pscalar
	VMOVSS X1, (DI)(R9*4)
	INCQ   R9
	JMP    jscalar

done:
	VZEROUPPER
	RET
