//go:build amd64

#include "textflag.h"

// Every hot loop below starts on a 32-byte boundary (PCALIGN $32). The
// linker places functions 32-byte aligned but not 64-byte aligned, so
// without it a loop body could straddle a cache line in one binary and not
// in the next: conv16RowAVX2's tap-pair loop did, and serve-fleet-quant
// moved ~10 % between two builds that differed only in unrelated Go code.
//
// A function that touches a Y register writes X registers with VEX forms only
// (VMOVQ, not MOVQ AX, X0): after a 256-bit write each legacy-SSE instruction
// pays a state transition; one such MOVQ in a YMM loop made a whole training
// run 2.5x slower (TestAsmNoLegacySSEInAVX).

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

	PCALIGN $32
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

	PCALIGN $32
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

// func planes16AVX2(dst, src *int16, blocks, groups, ocBytes, npBytes int)
// PixelsToPlanes16's body (epilogue16.go) over blocks × 16 pixels of every
// group of 8 channels. src points at pixel 0's first word, pixels ocBytes
// apart; dst at plane 0, planes npBytes apart. Per block of one group, Yi
// holds pixel i's 8 words in its low lane and pixel i+8's in its high lane;
// three unpack stages (words, dwords, qwords) transpose both 8×8 lanes at
// once, leaving channel c's 16 pixels in one register, stored as 32 bytes
// into plane c. The next group starts 16 bytes on in src and 8 planes on in
// dst.
TEXT ·planes16AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ groups+24(FP), R12
	MOVQ ocBytes+32(FP), BX
	MOVQ npBytes+40(FP), DX
	MOVQ BX, R9
	SHLQ $4, R9                // 16 pixels of src

group:
	MOVQ blocks+16(FP), CX
	MOVQ SI, R13               // this group's first pixel block
	MOVQ DI, R14               // this group's first plane

	PCALIGN $32
pblock:
	MOVQ        R13, R10
	LEAQ        (R13)(BX*8), R11
	VMOVDQU     (R10), X0
	VINSERTI128 $1, (R11), Y0, Y0
	ADDQ        BX, R10
	ADDQ        BX, R11
	VMOVDQU     (R10), X1
	VINSERTI128 $1, (R11), Y1, Y1
	ADDQ        BX, R10
	ADDQ        BX, R11
	VMOVDQU     (R10), X2
	VINSERTI128 $1, (R11), Y2, Y2
	ADDQ        BX, R10
	ADDQ        BX, R11
	VMOVDQU     (R10), X3
	VINSERTI128 $1, (R11), Y3, Y3
	ADDQ        BX, R10
	ADDQ        BX, R11
	VMOVDQU     (R10), X4
	VINSERTI128 $1, (R11), Y4, Y4
	ADDQ        BX, R10
	ADDQ        BX, R11
	VMOVDQU     (R10), X5
	VINSERTI128 $1, (R11), Y5, Y5
	ADDQ        BX, R10
	ADDQ        BX, R11
	VMOVDQU     (R10), X6
	VINSERTI128 $1, (R11), Y6, Y6
	ADDQ        BX, R10
	ADDQ        BX, R11
	VMOVDQU     (R10), X7
	VINSERTI128 $1, (R11), Y7, Y7

	// Words: pairs of pixels, channel by channel.
	VPUNPCKLWD Y1, Y0, Y8
	VPUNPCKHWD Y1, Y0, Y9
	VPUNPCKLWD Y3, Y2, Y10
	VPUNPCKHWD Y3, Y2, Y11
	VPUNPCKLWD Y5, Y4, Y12
	VPUNPCKHWD Y5, Y4, Y13
	VPUNPCKLWD Y7, Y6, Y14
	VPUNPCKHWD Y7, Y6, Y15

	// Dwords: two channels of four pixels each.
	VPUNPCKLDQ Y10, Y8, Y0
	VPUNPCKHDQ Y10, Y8, Y1
	VPUNPCKLDQ Y11, Y9, Y2
	VPUNPCKHDQ Y11, Y9, Y3
	VPUNPCKLDQ Y14, Y12, Y4
	VPUNPCKHDQ Y14, Y12, Y5
	VPUNPCKLDQ Y15, Y13, Y6
	VPUNPCKHDQ Y15, Y13, Y7

	// Qwords: one channel of eight pixels per lane, channels 0-7.
	VPUNPCKLQDQ Y4, Y0, Y8
	VPUNPCKHQDQ Y4, Y0, Y9
	VPUNPCKLQDQ Y5, Y1, Y10
	VPUNPCKHQDQ Y5, Y1, Y11
	VPUNPCKLQDQ Y6, Y2, Y12
	VPUNPCKHQDQ Y6, Y2, Y13
	VPUNPCKLQDQ Y7, Y3, Y14
	VPUNPCKHQDQ Y7, Y3, Y15

	MOVQ    R14, R10
	VMOVDQU Y8, (R10)
	ADDQ    DX, R10
	VMOVDQU Y9, (R10)
	ADDQ    DX, R10
	VMOVDQU Y10, (R10)
	ADDQ    DX, R10
	VMOVDQU Y11, (R10)
	ADDQ    DX, R10
	VMOVDQU Y12, (R10)
	ADDQ    DX, R10
	VMOVDQU Y13, (R10)
	ADDQ    DX, R10
	VMOVDQU Y14, (R10)
	ADDQ    DX, R10
	VMOVDQU Y15, (R10)

	ADDQ R9, R13
	ADDQ $32, R14
	DECQ CX
	JNZ  pblock

	ADDQ $16, SI
	LEAQ (DI)(DX*8), DI
	DECQ R12
	JNZ  group

	VZEROUPPER
	RET

// func narrow64AVX2(dst *int16, acc *int32, bias *int16, blocks, biasLen, bshift, shift, lo int)
// Narrow64's body (epilogue16.go) over blocks × 16 words, for 1 <= s =
// shift <= 29 and bshift <= 15, in int32 lanes. With A = acc split as
// q·2^s + r (q = A >> s arithmetic, r = A & (2^s - 1)) and B = bias << bshift
// + 2^(s-1), the exact floor((A + B) / 2^s) is q + ((r + B) >> s): |B| <
// 2^30 + 2^28 and r < 2^29 keep r + B inside int32, and the sum of the two
// shifted terms inside it too. VPACKSSDW is sat16 (VPERMQ undoes its
// per-lane interleave) and VPMAXSW clamps at lo. The bias cursor moves 8
// words at a time and wraps at the end of the biasLen row (a multiple of 8).
TEXT ·narrow64AVX2(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         bias+16(FP), R8
	MOVQ         biasLen+32(FP), R9
	LEAQ         (R8)(R9*2), R9             // end of the bias row
	MOVQ         R8, DX                     // bias cursor
	MOVQ         bshift+40(FP), AX
	VMOVQ        AX, X14                    // bias shift
	MOVQ         shift+48(FP), CX
	VMOVQ        CX, X13                    // s
	MOVQ         $1, BX
	SHLQ         CX, BX
	DECQ         BX
	VMOVQ        BX, X10
	VPBROADCASTD X10, Y10                   // 2^s - 1 in every dword
	DECQ         CX
	MOVQ         $1, BX
	SHLQ         CX, BX
	VMOVQ        BX, X15
	VPBROADCASTD X15, Y15                   // 2^(s-1) in every dword
	MOVQ         lo+56(FP), AX
	VMOVQ        AX, X11
	VPBROADCASTW X11, Y11                   // lo in every word
	MOVQ         blocks+24(FP), CX

	PCALIGN $32
n64block:
	VPMOVSXWD (DX), Y4
	ADDQ      $16, DX
	CMPQ      DX, R9
	CMOVQEQ   R8, DX
	VPMOVSXWD (DX), Y5
	ADDQ      $16, DX
	CMPQ      DX, R9
	CMOVQEQ   R8, DX
	VPSLLD    X14, Y4, Y4
	VPSLLD    X14, Y5, Y5
	VPADDD    Y15, Y4, Y4                   // B, words 0-7
	VPADDD    Y15, Y5, Y5                   // B, words 8-15
	VMOVDQU   (SI), Y0
	VMOVDQU   32(SI), Y1
	VPAND     Y10, Y0, Y2                   // r
	VPAND     Y10, Y1, Y3
	VPADDD    Y4, Y2, Y2
	VPADDD    Y5, Y3, Y3
	VPSRAD    X13, Y2, Y2                   // (r + B) >> s
	VPSRAD    X13, Y3, Y3
	VPSRAD    X13, Y0, Y0                   // q
	VPSRAD    X13, Y1, Y1
	VPADDD    Y2, Y0, Y0
	VPADDD    Y3, Y1, Y1
	VPACKSSDW Y1, Y0, Y0                    // quads: 0-3 8-11 4-7 12-15
	VPERMQ    $0xD8, Y0, Y0                 // quads: 0-3 4-7 8-11 12-15
	VPMAXSW   Y11, Y0, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $64, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       n64block

	VZEROUPPER
	RET

// func axpyPanel16AVX2(dst *int64, a, b *int16, offs *int, sa, k, n int)
// AxpyPanel16's body (int16.go) for n a positive multiple of 16, four int64
// accumulators per 16 columns. VPMOVSXWQ widens b words to qwords, VPMULDQ
// multiplies their low dwords by the broadcast coefficient, signed 32x32 ->
// 64, exact; a zero coefficient skips its row.
//
// Register map: DI=dst SI=a DX=b R10=sa*2 CX=offs end R14=-k R8=n R9=j
//               R11=a cursor R12=b+2j R13=p-k (counts up to 0) BX=offs[p]
TEXT ·axpyPanel16AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ offs+24(FP), CX
	MOVQ sa+32(FP), R10
	SHLQ $1, R10
	MOVQ k+40(FP), R14
	LEAQ (CX)(R14*8), CX
	NEGQ R14
	MOVQ n+48(FP), R8
	XORQ R9, R9

g16:
	VMOVDQU (DI)(R9*8), Y1
	VMOVDQU 32(DI)(R9*8), Y2
	VMOVDQU 64(DI)(R9*8), Y3
	VMOVDQU 96(DI)(R9*8), Y4
	MOVQ    SI, R11
	LEAQ    (DX)(R9*2), R12
	MOVQ    R14, R13

	PCALIGN $32
p16:
	MOVWQSX      (R11), AX
	TESTQ        AX, AX
	JZ           p16next
	VMOVQ        AX, X0
	VPBROADCASTQ X0, Y0
	MOVQ         (CX)(R13*8), BX
	VPMOVSXWQ    (R12)(BX*2), Y5
	VPMOVSXWQ    8(R12)(BX*2), Y6
	VPMOVSXWQ    16(R12)(BX*2), Y7
	VPMOVSXWQ    24(R12)(BX*2), Y8
	VPMULDQ      Y0, Y5, Y5
	VPMULDQ      Y0, Y6, Y6
	VPMULDQ      Y0, Y7, Y7
	VPMULDQ      Y0, Y8, Y8
	VPADDQ       Y5, Y1, Y1
	VPADDQ       Y6, Y2, Y2
	VPADDQ       Y7, Y3, Y3
	VPADDQ       Y8, Y4, Y4

p16next:
	ADDQ    R10, R11
	INCQ    R13
	JNZ     p16
	VMOVDQU Y1, (DI)(R9*8)
	VMOVDQU Y2, 32(DI)(R9*8)
	VMOVDQU Y3, 64(DI)(R9*8)
	VMOVDQU Y4, 96(DI)(R9*8)
	ADDQ    $16, R9
	CMPQ    R9, R8
	JLT     g16

	VZEROUPPER
	RET
