//go:build amd64

#include "textflag.h"

// func dot16AVX2(a, b *int16, n int) int32
// Wrap-around int32 dot product of two int16 vectors. 16 elements per
// VPMADDWD+VPADDD step; all additions are mod 2^32 so any accumulation
// order gives the scalar loop's exact result.
TEXT ·dot16AVX2(SB), NOSPLIT, $0-28
	MOVQ  a+0(FP), SI
	MOVQ  b+8(FP), DI
	MOVQ  n+16(FP), CX
	VPXOR Y0, Y0, Y0
	MOVQ  CX, BX
	SHRQ  $4, BX             // 16-element blocks
	JZ    reduce

loop16:
	VMOVDQU  (SI), Y1
	VPMADDWD (DI), Y1, Y1
	VPADDD   Y1, Y0, Y0
	ADDQ     $32, SI
	ADDQ     $32, DI
	DECQ     BX
	JNZ      loop16

reduce:
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1 // swap 64-bit halves
	VPADDD       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1 // swap 32-bit pairs
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	ANDQ         $15, CX
	JZ           done

scalar:
	MOVWLSX (SI), DX
	MOVWLSX (DI), R8
	IMULL   R8, DX
	ADDL    DX, AX
	ADDQ    $2, SI
	ADDQ    $2, DI
	DECQ    CX
	JNZ     scalar

done:
	VZEROUPPER
	MOVL AX, ret+24(FP)
	RET

// func cpuHasAVX2Asm() bool
// CPUID.7.0:EBX bit 5. OS state support is checked separately via hasAVX.
TEXT ·cpuHasAVX2Asm(SB), NOSPLIT, $0-1
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   noavx2
	MOVB $1, ret+0(FP)
	RET

noavx2:
	MOVB $0, ret+0(FP)
	RET

// func conv16RowAVX2(dst *int32, x, w *int16, n, ocBytes, xStep, inC, planeBytes, k, rowBytes, pairs int)
// Direct convolution of n adjacent output pixels for one group of 8 output
// channels (conv16.go). x points at the first pixel's top-left tap in the
// padded [ic][row][col] sample, w at the group's first weight pair in the
// [ic][ky][pair][oc][2] image, dst at the group's lane of the first pixel's
// (pixel, oc) int32 row. Per pixel: Y0 = 0; for every channel (planeBytes
// apart), kernel row (rowBytes apart) and tap pair (4 bytes apart), Y0 +=
// VPMADDWD(broadcast of the two int16 taps, 8 channels' weight pairs) — the
// weights are walked linearly, ocBytes (= 4*outC) per pair; then Y0 is
// stored, dst moves ocBytes and x moves xStep (2*stride). All sums are mod
// 2^32. Reads stay inside the padded sample: the last pair of an odd kernel
// reads the row's slack word, against a zero weight. n, inC, k, pairs >= 1.
TEXT ·conv16RowAVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+24(FP), CX
	MOVQ ocBytes+32(FP), BX

pixel:
	VPXOR Y0, Y0, Y0
	MOVQ  w+16(FP), DX
	MOVQ  SI, R12
	MOVQ  inC+48(FP), R9

plane:
	MOVQ R12, R13
	MOVQ k+64(FP), R10

row:
	MOVQ R13, AX
	MOVQ pairs+80(FP), R11

pair:
	VPBROADCASTD (AX), Y1
	VPMADDWD     (DX), Y1, Y1
	VPADDD       Y1, Y0, Y0
	ADDQ         $4, AX
	ADDQ         BX, DX
	DECQ         R11
	JNZ          pair

	ADDQ rowBytes+72(FP), R13
	DECQ R10
	JNZ  row

	ADDQ planeBytes+56(FP), R12
	DECQ R9
	JNZ  plane

	VMOVDQU Y0, (DI)
	ADDQ    BX, DI
	ADDQ    xStep+40(FP), SI
	DECQ    CX
	JNZ     pixel

	VZEROUPPER
	RET
