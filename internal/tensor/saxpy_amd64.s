//go:build amd64

#include "textflag.h"

// func saxpyPtrAVX(dst, src *float32, n int, a float32)
// dst[i] += a*src[i], 8 lanes per VMULPS+VADDPS pair (no FMA: two roundings
// per element, exactly like the scalar Go loop).
TEXT ·saxpyPtrAVX(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0
	MOVQ         CX, BX
	SHRQ         $5, BX      // 32-element unrolled blocks
	JZ           avx8

loop32:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    BX
	JNZ     loop32

avx8:
	MOVQ CX, BX
	ANDQ $31, CX
	ANDQ $24, BX             // remaining full 8-element vectors (x4 bytes)
	JZ   tail8

loop8:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, BX
	JNZ     loop8

tail8:
	ANDQ $7, CX
	JZ   done8

tailloop8:
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    tailloop8

done8:
	VZEROUPPER
	RET

// func cpuHasAVXAsm() bool
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0 must
// have the SSE and AVX state bits enabled by the OS.
TEXT ·cpuHasAVXAsm(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	CPUID
	ANDL  $(1<<27 | 1<<28), CX
	CMPL  CX, $(1<<27 | 1<<28)
	JNE   noavx
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   noavx
	MOVB  $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET
