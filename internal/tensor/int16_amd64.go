//go:build amd64

package tensor

// AVX2 int16 kernels (int16_amd64.s). VPMADDWD multiplies 16 int16 lanes
// pairwise into 8 int32 partial sums per step, VPADDD accumulates, and a
// tree reduction folds the lanes. Every addition is mod 2^32, so the
// reordering relative to the scalar loop cannot change the result (see
// int16.go) — including VPMADDWD's single edge case,
// (-32768)·(-32768)+(-32768)·(-32768), which the instruction defines to
// produce 0x80000000: exactly the wrapped sum.

//go:noescape
func dot16AVX2(a, b *int16, n int) int32

//go:noescape
func mul16TAVX2(dst *int32, a, bT *int16, rows, blocks, kBytes, tiles, dstBytes int)

// cpuHasAVX2Asm reports CPUID.7.0:EBX bit 5 (AVX2). OS support for the YMM
// state is already established by hasAVX (XGETBV), so the combined gate is
// hasAVX && cpuHasAVX2Asm().
func cpuHasAVX2Asm() bool

// useInt16AVX2 gates every int16 kernel's AVX2 body. A variable, as
// useFloatAVX is, so tests run the asm and the portable twins in one process.
var useInt16AVX2 = hasAVX && cpuHasAVX2Asm()

func dot16(a, b []int16) int32 {
	if useInt16AVX2 && len(a) > 0 {
		_ = b[len(a)-1]
		return dot16AVX2(&a[0], &b[0], len(a))
	}
	return dot16Scalar(a, b)
}

// mul16TVec runs MatMul16T's tile kernel over every whole 4-column tile of
// rows rows, reading the first k&^15 words of each row, and returns that
// count: 0 when it did nothing.
func mul16TVec(dst []int32, a, bT []int16, rows, k, n int) int {
	if !useInt16AVX2 || rows == 0 || k < 16 || n < 4 {
		return 0
	}
	mul16TAVX2(&dst[0], &a[0], &bT[0], rows, k/16, 2*k, n/4, 4*n)
	return k &^ 15
}

// conv16RowAVX2 convolves n horizontally adjacent output pixels for groups
// (1 or 2) groups of 8 output channels; the instruction-level contract is in
// int16_amd64.s.
//
//go:noescape
func conv16RowAVX2(dst *int32, x, w *int16, n, ocBytes, xStep, inC, planeBytes, k, rowBytes, pairs, groups int)

// conv16Row walks the row once per 16 output channels: each broadcast tap
// pair feeds two 8-channel groups, and an odd last group runs alone.
func conv16Row(c *Conv16, dst []int32, x []int16, ow, rowLen, plane int) {
	if !useInt16AVX2 || c.outC%8 != 0 {
		conv16RowGo(c, dst, x, ow, rowLen, plane)
		return
	}
	for g := 0; g < c.outC; g += 16 {
		conv16RowAVX2(&dst[g], &x[0], &c.w[2*g], ow, c.outC*4, c.stride*2, c.inC, plane*2, c.k, rowLen*2, (c.k+1)/2, min(c.outC-g, 16)/8)
	}
}

//go:noescape
func planes16AVX2(dst, src *int16, blocks, groups, ocBytes, npBytes int)

// planes16Vec runs the CHW transpose's AVX2 body over whole 16-pixel blocks
// and returns how many pixels are done.
func planes16Vec(dst, src []int16, np, oc int) int {
	n := np &^ 15
	if !useInt16AVX2 || n == 0 || oc%8 != 0 {
		return 0
	}
	planes16AVX2(&dst[0], &src[0], n/16, oc/8, oc*2, np*2)
	return n
}

//go:noescape
func narrow64AVX2(dst *int16, acc *int32, bias *int16, blocks, biasLen, bshift, shift, lo int)

//go:noescape
func axpyPanel16AVX2(dst *int64, a, b *int16, offs *int, sa, k, n int)

// narrow64Vec and axpyPanel16Vec run the AVX2 bodies over whole 16-word
// (16-column) blocks and return how many words (columns) are done.
func narrow64Vec(dst []int16, acc []int32, bias []int16, bshift, shift uint, lo int16) int {
	n := len(acc) &^ 15
	if !useInt16AVX2 || n == 0 || len(bias) == 0 || len(bias)%8 != 0 || shift < 1 || shift > 29 || bshift > 15 {
		return 0
	}
	narrow64AVX2(&dst[0], &acc[0], &bias[0], n/16, len(bias), int(bshift), int(shift), int(lo))
	return n
}

//go:noescape
func quantize16AVX2(dst *int16, src *float32, blocks int, scale float32)

// quantize16Vec runs Quantize16's AVX2 body over whole 16-word blocks and
// returns how many words are done.
func quantize16Vec(dst []int16, src []float32, frac uint) int {
	n := len(src) &^ 15
	if !useInt16AVX2 || n == 0 {
		return 0
	}
	quantize16AVX2(&dst[0], &src[0], n/16, float32(int32(1)<<frac))
	return n
}

func axpyPanel16Vec(dst []int64, a []int16, sa int, b []int16, offs []int) int {
	n := len(dst) &^ 15
	if !useInt16AVX2 || n == 0 {
		return 0
	}
	axpyPanel16AVX2(&dst[0], &a[0], &b[0], &offs[0], sa, len(offs), n)
	return n
}
