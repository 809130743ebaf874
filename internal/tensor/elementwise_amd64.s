//go:build amd64

#include "textflag.h"

// func maxAbsAVX(x *float32, n int) float32
// max |x[i]| over i < n, n a positive multiple of 8, from four accumulators
// at +0. VANDPS clears each sign bit; VMAXPS takes the accumulator as its
// second source, which it returns when the element is NaN. Every
// accumulator lane is non-NaN, so the closing reduction's order is free.
// The mask is built with AVX-only instructions (VPCMPEQD on Y needs AVX2).
TEXT ·maxAbsAVX(SB), NOSPLIT, $0-20
	MOVQ        x+0(FP), SI
	MOVQ        n+8(FP), CX
	VPCMPEQD    X5, X5, X5
	VPSRLD      $1, X5, X5
	VINSERTF128 $1, X5, Y5, Y5 // 0x7fffffff in every lane
	VXORPS      Y1, Y1, Y1
	VXORPS      Y2, Y2, Y2
	VXORPS      Y3, Y3, Y3
	VXORPS      Y4, Y4, Y4
	MOVQ        CX, BX
	SHRQ        $5, BX
	JZ          m8
	PCALIGN     $32
m32:
	VANDPS  (SI), Y5, Y6
	VANDPS  32(SI), Y5, Y7
	VANDPS  64(SI), Y5, Y8
	VANDPS  96(SI), Y5, Y9
	VMAXPS  Y1, Y6, Y1
	VMAXPS  Y2, Y7, Y2
	VMAXPS  Y3, Y8, Y3
	VMAXPS  Y4, Y9, Y4
	ADDQ    $128, SI
	DECQ    BX
	JNZ     m32

m8:
	ANDQ $31, CX
	SHRQ $3, CX
	JZ   reduce
	PCALIGN $32
m8loop:
	VANDPS (SI), Y5, Y6
	VMAXPS Y1, Y6, Y1
	ADDQ   $32, SI
	DECQ   CX
	JNZ    m8loop

reduce:
	VMAXPS       Y2, Y1, Y1
	VMAXPS       Y4, Y3, Y3
	VMAXPS       Y3, Y1, Y1
	VEXTRACTF128 $1, Y1, X2
	VMAXPS       X2, X1, X1
	VPERMILPS    $0x4e, X1, X2
	VMAXPS       X2, X1, X1
	VPERMILPS    $0xb1, X1, X2
	VMAXSS       X2, X1, X1
	VMOVSS       X1, ret+16(FP)
	VZEROUPPER
	RET

// func scaleAVX(x *float32, n int, s float32)
// x[i] *= s for i < n, n a positive multiple of 8: one VMULPS rounding, the
// element as its first source like the loop's x*s.
TEXT ·scaleAVX(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	VBROADCASTSS s+16(FP), Y0
	PCALIGN      $32
sloop:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     sloop
	VZEROUPPER
	RET

// func biasRowsAVX(dst, src *float32, rows, w, ld int, b float32)
// dst[r*w+j] = src[r*ld+j] + b for r < rows, j < w, rows positive and w a
// positive multiple of 8: one VADDPS rounding, the sum as its first source
// like the loop's v+b.
TEXT ·biasRowsAVX(SB), NOSPLIT, $0-44
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), DX
	MOVQ         w+24(FP), R8
	MOVQ         ld+32(FP), R9
	SHLQ         $2, R9
	VBROADCASTSS b+40(FP), Y0
brow:
	XORQ    AX, AX
	PCALIGN $32
bcol:
	VMOVUPS (SI)(AX*4), Y1
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	CMPQ    AX, R8
	JLT     bcol
	LEAQ    (DI)(R8*4), DI
	ADDQ    R9, SI
	DECQ    DX
	JNZ     brow
	VZEROUPPER
	RET
