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
// Wrap-around int32 dot product of two int16 vectors, MatMul16T's n%4 tail
// (one output word per call). 16 elements per VPMADDWD+VPADDD step; all
// additions are mod 2^32 so any accumulation order gives the scalar loop's
// exact result.
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

// func mul16TAVX2(dst *int32, a, bT *int16, rows, blocks, kBytes, tiles, dstBytes int)
// MatMul16T's tile kernel (int16.go) over rows rows of a (kBytes apart) and
// tiles × 4 rows of bT (kBytes apart), reading the first 16·blocks words of
// every row; dst rows are dstBytes apart and each tile stores its four
// words 16 bytes on from the last. Rows go two at a time: a 2×4 tile loads
// each 16-word block of its two a rows and four bT rows once and feeds eight
// accumulators (Y0-Y3 for the first a row, Y4-Y7 for the second) with one
// VPMADDWD each; an odd last row runs the 1×4 tile, one a block against four
// bT blocks. The fold: VPHADDD twice leaves each bT row's lane pairs and
// quads summed within each 128-bit half, a third puts one partial sum per bT
// row in each half's four dwords, and one VPADDD of the halves leaves the
// tile's four words in order (the 2×4 tile joins its two a rows' halves with
// VPERM2I128, one row per half). All sums are mod 2^32, so the lane order
// and the fold give the scalar loop's words. rows, blocks, tiles >= 1.
//
// Register map: DI=dst row SI=a row R8=bT tile R9=kBytes R10=3·kBytes
//               R11=dstBytes R12=rows left R13=tiles left R14=dst tile
//               BX=blocks CX=blocks left AX=a cursor DX=bT cursor
TEXT ·mul16TAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ rows+24(FP), R12
	MOVQ blocks+32(FP), BX
	MOVQ kBytes+40(FP), R9
	LEAQ (R9)(R9*2), R10
	MOVQ dstBytes+56(FP), R11
	CMPQ R12, $2
	JLT  row1

row2:
	MOVQ bT+16(FP), R8
	MOVQ DI, R14
	MOVQ tiles+48(FP), R13

tile2:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  SI, AX
	MOVQ  R8, DX
	MOVQ  BX, CX

	PCALIGN $32
blk2:
	VMOVDQU  (AX), Y8
	VMOVDQU  (AX)(R9*1), Y9
	VMOVDQU  (DX), Y10
	VPMADDWD Y10, Y8, Y11
	VPMADDWD Y10, Y9, Y12
	VPADDD   Y11, Y0, Y0
	VPADDD   Y12, Y4, Y4
	VMOVDQU  (DX)(R9*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPMADDWD Y10, Y9, Y12
	VPADDD   Y11, Y1, Y1
	VPADDD   Y12, Y5, Y5
	VMOVDQU  (DX)(R9*2), Y10
	VPMADDWD Y10, Y8, Y11
	VPMADDWD Y10, Y9, Y12
	VPADDD   Y11, Y2, Y2
	VPADDD   Y12, Y6, Y6
	VMOVDQU  (DX)(R10*1), Y10
	VPMADDWD Y10, Y8, Y11
	VPMADDWD Y10, Y9, Y12
	VPADDD   Y11, Y3, Y3
	VPADDD   Y12, Y7, Y7
	ADDQ     $32, AX
	ADDQ     $32, DX
	DECQ     CX
	JNZ      blk2

	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0         // first a row: [4 words | 4 words]
	VPHADDD      Y5, Y4, Y4
	VPHADDD      Y7, Y6, Y6
	VPHADDD      Y6, Y4, Y4         // second a row
	VPERM2I128   $0x20, Y4, Y0, Y8  // low halves: first row | second row
	VPERM2I128   $0x31, Y4, Y0, Y9  // high halves
	VPADDD       Y9, Y8, Y8
	VMOVDQU      X8, (R14)
	VEXTRACTI128 $1, Y8, (R14)(R11*1)
	ADDQ $16, R14
	LEAQ (R8)(R9*4), R8
	DECQ R13
	JNZ  tile2

	LEAQ (SI)(R9*2), SI
	LEAQ (DI)(R11*2), DI
	SUBQ $2, R12
	CMPQ R12, $2
	JGE  row2

row1:
	TESTQ R12, R12
	JZ    mdone
	MOVQ  bT+16(FP), R8
	MOVQ  DI, R14
	MOVQ  tiles+48(FP), R13

tile1:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  SI, AX
	MOVQ  R8, DX
	MOVQ  BX, CX

	PCALIGN $32
blk1:
	VMOVDQU  (AX), Y8
	VPMADDWD (DX), Y8, Y4
	VPMADDWD (DX)(R9*1), Y8, Y5
	VPMADDWD (DX)(R9*2), Y8, Y6
	VPMADDWD (DX)(R10*1), Y8, Y7
	VPADDD   Y4, Y0, Y0
	VPADDD   Y5, Y1, Y1
	VPADDD   Y6, Y2, Y2
	VPADDD   Y7, Y3, Y3
	ADDQ     $32, AX
	ADDQ     $32, DX
	DECQ     CX
	JNZ      blk1

	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VMOVDQU      X0, (R14)
	ADDQ $16, R14
	LEAQ (R8)(R9*4), R8
	DECQ R13
	JNZ  tile1

mdone:
	VZEROUPPER
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

// func conv16RowAVX2(dst *int32, x, w *int16, n, ocBytes, xStep, inC, planeBytes, k, rowBytes, pairs, groups int)
// Direct convolution of n adjacent output pixels for groups (1 or 2)
// adjacent groups of 8 output channels (conv16.go). x points at the first
// pixel's top-left tap in the padded [ic][row][col] sample, w at the first
// group's first weight pair in the [ic][ky][pair][oc][2] image (the second
// group's pairs sit 32 bytes on), dst at the first group's lane of the
// first pixel's (pixel, oc) int32 row. Pixels go four at a time: for every
// channel (planeBytes apart), kernel row (rowBytes apart) and tap pair (4
// bytes apart), the tap pair of each pixel (xStep = 2*stride bytes apart) is
// broadcast once and one load of 8 channels' weight pairs per group feeds
// four VPMADDWDs, one per pixel, into that pixel's accumulator for the group
// — Y0-Y3 for the first group, Y4-Y7 for the second; the weights are walked
// linearly, ocBytes (= 4*outC) per pair. Then the accumulators are stored
// ocBytes apart per pixel, 32 bytes apart per group, dst moves 4*ocBytes and
// x 4*xStep. The n%4 pixels left run the same walk one pixel and one group
// at a time into Y0. All sums are mod 2^32. Reads stay inside the padded
// sample: the last pair of an odd kernel reads the row's slack word, against
// a zero weight. n, inC, k, pairs >= 1.
//
// Register map: DI=dst SI=x BX=ocBytes R8=xStep (tail: groups left)
//               R14=3*xStep (tail: group's weights) CX=pixels or quads left
//               DX=w cursor R12=plane R9=channels left R13=row R10=rows left
//               AX=tap cursor R11=pairs left
TEXT ·conv16RowAVX2(SB), NOSPLIT, $0-96
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+24(FP), CX
	MOVQ ocBytes+32(FP), BX
	MOVQ xStep+40(FP), R8
	LEAQ (R8)(R8*2), R14
	SHRQ $2, CX
	JZ   tail
	CMPQ groups+88(FP), $2
	JEQ  quad2

quad:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	MOVQ  w+16(FP), DX
	MOVQ  SI, R12
	MOVQ  inC+48(FP), R9

qplane:
	MOVQ R12, R13
	MOVQ k+64(FP), R10

qrow:
	MOVQ R13, AX
	MOVQ pairs+80(FP), R11

	PCALIGN $32
qpair:
	VMOVDQU      (DX), Y4
	VPBROADCASTD (AX), Y5
	VPBROADCASTD (AX)(R8*1), Y6
	VPBROADCASTD (AX)(R8*2), Y7
	VPBROADCASTD (AX)(R14*1), Y8
	VPMADDWD     Y4, Y5, Y5
	VPMADDWD     Y4, Y6, Y6
	VPMADDWD     Y4, Y7, Y7
	VPMADDWD     Y4, Y8, Y8
	VPADDD       Y5, Y0, Y0
	VPADDD       Y6, Y1, Y1
	VPADDD       Y7, Y2, Y2
	VPADDD       Y8, Y3, Y3
	ADDQ         $4, AX
	ADDQ         BX, DX
	DECQ         R11
	JNZ          qpair

	ADDQ rowBytes+72(FP), R13
	DECQ R10
	JNZ  qrow

	ADDQ planeBytes+56(FP), R12
	DECQ R9
	JNZ  qplane

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, (DI)(BX*1)
	VMOVDQU Y2, (DI)(BX*2)
	LEAQ    (DI)(BX*2), DI
	VMOVDQU Y3, (DI)(BX*1)
	LEAQ    (DI)(BX*2), DI
	LEAQ    (SI)(R8*4), SI
	DECQ    CX
	JNZ     quad
	JMP     tail

quad2:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  w+16(FP), DX
	MOVQ  SI, R12
	MOVQ  inC+48(FP), R9

q2plane:
	MOVQ R12, R13
	MOVQ k+64(FP), R10

q2row:
	MOVQ R13, AX
	MOVQ pairs+80(FP), R11

	PCALIGN $32
q2pair:
	VMOVDQU      (DX), Y12
	VMOVDQU      32(DX), Y13
	VPBROADCASTD (AX), Y8
	VPBROADCASTD (AX)(R8*1), Y9
	VPBROADCASTD (AX)(R8*2), Y10
	VPBROADCASTD (AX)(R14*1), Y11
	VPMADDWD     Y12, Y8, Y14
	VPMADDWD     Y12, Y9, Y15
	VPADDD       Y14, Y0, Y0
	VPADDD       Y15, Y1, Y1
	VPMADDWD     Y12, Y10, Y14
	VPMADDWD     Y12, Y11, Y15
	VPADDD       Y14, Y2, Y2
	VPADDD       Y15, Y3, Y3
	VPMADDWD     Y13, Y8, Y8
	VPMADDWD     Y13, Y9, Y9
	VPMADDWD     Y13, Y10, Y10
	VPMADDWD     Y13, Y11, Y11
	VPADDD       Y8, Y4, Y4
	VPADDD       Y9, Y5, Y5
	VPADDD       Y10, Y6, Y6
	VPADDD       Y11, Y7, Y7
	ADDQ         $4, AX
	ADDQ         BX, DX
	DECQ         R11
	JNZ          q2pair

	ADDQ rowBytes+72(FP), R13
	DECQ R10
	JNZ  q2row

	ADDQ planeBytes+56(FP), R12
	DECQ R9
	JNZ  q2plane

	VMOVDQU Y0, (DI)
	VMOVDQU Y4, 32(DI)
	VMOVDQU Y1, (DI)(BX*1)
	VMOVDQU Y5, 32(DI)(BX*1)
	VMOVDQU Y2, (DI)(BX*2)
	VMOVDQU Y6, 32(DI)(BX*2)
	LEAQ    (DI)(BX*2), DI
	VMOVDQU Y3, (DI)(BX*1)
	VMOVDQU Y7, 32(DI)(BX*1)
	LEAQ    (DI)(BX*2), DI
	LEAQ    (SI)(R8*4), SI
	DECQ    CX
	JNZ     quad2

tail:
	MOVQ n+24(FP), CX
	ANDQ $3, CX
	JZ   cdone

pixel:
	MOVQ w+16(FP), R14
	MOVQ groups+88(FP), R8

group:
	VPXOR Y0, Y0, Y0
	MOVQ  R14, DX
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
	ADDQ    $32, DI
	ADDQ    $32, R14
	DECQ    R8
	JNZ     group

	MOVQ groups+88(FP), R8
	SHLQ $5, R8
	SUBQ R8, DI                // back to this pixel's first group
	ADDQ BX, DI
	ADDQ xStep+40(FP), SI
	DECQ CX
	JNZ  pixel

cdone:
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

// func quantize16AVX2(dst *int16, src *float32, blocks int, scale float32)
// Quantize16's body (quantize16.go) over blocks × 16 words. Per 8 lanes:
// VMULPS by scale = 2^frac (exact, or ±Inf past float32's range), an
// ordered compare of the product with itself whose mask zeroes NaN lanes,
// VROUNDPS $0 (to nearest, ties to even, whatever MXCSR says), VMINPS at
// 32767 (+Inf included), then VCVTPS2DQ: exact on integers from -2^31 up,
// and 0x80000000 below that (-Inf included). VPACKSSDW joins two such
// octets and saturates every lane under -32768 to -32768, so the low end
// needs no clamp of its own; VPERMQ undoes its per-lane interleave.
TEXT ·quantize16AVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         blocks+16(FP), CX
	VBROADCASTSS scale+24(FP), Y15
	MOVL         $0x46fffe00, AX            // 32767.0
	VMOVD        AX, X14
	VBROADCASTSS X14, Y14

	PCALIGN $32
q16block:
	VMULPS    (SI), Y15, Y0
	VMULPS    32(SI), Y15, Y1
	VCMPPS    $7, Y0, Y0, Y2                // ordered: all ones unless NaN
	VCMPPS    $7, Y1, Y1, Y3
	VANDPS    Y2, Y0, Y0
	VANDPS    Y3, Y1, Y1
	VROUNDPS  $0, Y0, Y0
	VROUNDPS  $0, Y1, Y1
	VMINPS    Y14, Y0, Y0
	VMINPS    Y14, Y1, Y1
	VCVTPS2DQ Y0, Y0
	VCVTPS2DQ Y1, Y1
	VPACKSSDW Y1, Y0, Y0                    // quads: 0-3 8-11 4-7 12-15
	VPERMQ    $0xD8, Y0, Y0                 // quads: 0-3 4-7 8-11 12-15
	VMOVDQU   Y0, (DI)
	ADDQ      $64, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       q16block

	VZEROUPPER
	RET
