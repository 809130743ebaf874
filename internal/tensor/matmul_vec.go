package tensor

// The panel kernels behind every float GEMM and convolution. SIMD lanes span
// output elements, never the reduction axis: each lane receives its products
// one at a time, in ascending order, through a single accumulator, as a
// multiply rounding then an add rounding (VMULPS, VADDPS, never a fused
// multiply-add). So the AVX bodies and their portable twins are bit-identical
// to the naive accumulate loop on every arch.
//
// This is why the layers stack their operands the way they do (stride-phase
// planes, minibatch rows): the batch/spatial axis lies contiguous in memory,
// giving the kernels long unit-stride rows. A dot-product formulation
// reduces along the contiguous axis of both operands, where any SIMD split of
// the accumulator would reorder the additions and round differently.

// gemmBlockK is the reduction-panel height: a panel of B (gemmBlockK x n
// float32s) is kept hot across all rows of A instead of streaming B once per
// row.
const gemmBlockK = 256

// accumRowsVec accumulates dst rows [lo, hi) of dst += A x B for a dense
// (k x n) B, A's coefficient p of row i being ad[i*aRow+p*aCol] (aRow=k,
// aCol=1 walks A's rows, aRow=1, aCol=m its columns — the A^T x B form).
// Each gemmBlockK-row panel of B goes to panelRowsVec, its rows addressed
// through a p·n table. Per output element the products still arrive in
// ascending p order through a single accumulator — in a register within a
// panel, carried through the destination between panels — so the result is
// bit-identical to the naive triple loop.
func accumRowsVec(cd, ad []float32, aRow, aCol int, bd []float32, k, n, lo, hi int) {
	offs := panelOffs(n, k)
	for p0 := 0; p0 < k; p0 += gemmBlockK {
		panelRowsVec(cd[lo*n:], ad[lo*aRow+p0*aCol:], aRow, aCol, bd[p0*n:], offs[:min(gemmBlockK, k-p0)], n, hi-lo)
	}
}

// panelOffs is the row-offset table p·n of a dense panel, n wide and
// min(k, gemmBlockK) rows deep.
func panelOffs(n, k int) (offs [gemmBlockK]int) {
	for p := range min(k, gemmBlockK) {
		offs[p] = p * n
	}
	return offs
}

// panelRowsVec accumulates one reduction panel into m destination rows,
// cd[i*n+j] += sum_p ad[i*aRow+p*aCol] * bd[offs[p]+j] for j < n: B's rows
// are wherever offs says — a dense B's p·n rows, or a convolution tap's run
// over stride-phase planes (ConvInto). Four rows at a time run on
// axpyPanel4AVX, the rest on axpyPanel.
func panelRowsVec(cd, ad []float32, aRow, aCol int, bd []float32, offs []int, n, m int) {
	i := 0
	if useFloatAVX {
		rows := [4]int{0, aRow, 2 * aRow, 3 * aRow}
		for ; i+3 < m; i += 4 {
			axpyPanel4AVX(&cd[i*n], &ad[i*aRow], &bd[0], &rows[0], &offs[0], aCol, len(offs), n)
		}
	}
	for ; i < m; i++ {
		axpyPanel(cd[i*n:(i+1)*n], ad[i*aRow:], aCol, bd, offs, n)
	}
}

// axpyPanel accumulates dst[j] += sum_p a[p*sa] * b[offs[p]+j] for j < n,
// skipping rows whose coefficient is ±0: the single-row panel, all of a
// batch-1 GEMV, on axpyPanelAVX's 64/16/8/1-wide column blocks. The coefficient stride walks a row of A (sa=1, the A x B
// form) or a column of A (sa=m, the A^T x B form).
func axpyPanel(dst, a []float32, sa int, b []float32, offs []int, n int) {
	if len(offs) == 0 || n <= 0 {
		return
	}
	if useFloatAVX {
		axpyPanelAVX(&dst[0], &a[0], &b[0], &offs[0], sa, len(offs), n)
		return
	}
	for p, o := range offs {
		av := a[p*sa]
		if av == 0 {
			continue
		}
		saxpyRow(dst[:n], b[o:o+n], av)
	}
}

// saxpyRow accumulates dst[i] += a * src[i] for i < len(dst); src must be at
// least as long as dst. saxpyPtrAVX runs 32, 8 and one lane at a time, each
// a VMULPS then a VADDPS: the loop's two roundings. The explicit conversion
// rounds the loop's product, so no arch fuses it into the add.
func saxpyRow(dst, src []float32, a float32) {
	if useFloatAVX && len(dst) > 0 {
		saxpyPtrAVX(&dst[0], &src[0], len(dst), a)
		return
	}
	for i, v := range src[:len(dst)] {
		dst[i] += float32(a * v)
	}
}
