package tensor

import "fmt"

// Vectorized GEMM entry points for the batched training path.
//
// The scalar kernels in matmul.go are the reference semantics of this
// package: single-accumulator, ascending-reduction-index updates per output
// element. The *Vec variants below run the exact same reduction schedule but
// vectorize the non-reduction (spatial) axis with the saxpyRow primitive —
// dst[j] += a*src[j] across a whole row at once. Because SIMD lanes span
// output elements, never the reduction axis, every output element still
// receives its products one at a time, in ascending order, through a single
// accumulator: the results are bit-identical to the scalar kernels (asserted
// by exact-equality tests in gemm_vec_test.go).
//
// This is why the layers stack their operands the way they do (stride-phase
// planes, minibatch rows): the batch/spatial axis lies contiguous in memory,
// giving saxpyRow long unit-stride rows. A dot-product formulation
// reduces along the contiguous axis of both operands, where any SIMD split of
// the accumulator would reorder the additions and break the bit-identity
// contract.

// MatMulAccumVec accumulates dst += A x B exactly like MatMulAccum — same
// shapes, same per-element reduction order, bit-identical results — with the
// inner row update vectorized. It is the weight-gradient and batched-GEMM
// workhorse of the minibatch training path.
func MatMulAccumVec(dst, a, b *Tensor) {
	if dst.Rank() != 2 || a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulAccumVec requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	if b.Dim(0) != k || dst.Dim(0) != m || dst.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulAccumVec shape mismatch %v += %v x %v", dst.shape, a.shape, b.shape))
	}
	n := b.Dim(1)
	cd, ad, bd := dst.data, a.data, b.data
	if serialRows(m, m*k*n) {
		accumRowsVec(cd, ad, k, 1, bd, k, n, 0, m)
	} else {
		parallelRows(m, func(lo, hi int) { accumRowsVec(cd, ad, k, 1, bd, k, n, lo, hi) })
	}
}

// accumRowsVec accumulates dst rows [lo, hi) of dst += A x B for a dense
// (k x n) B, A's coefficient p of row i being ad[i*aRow+p*aCol] (aRow=k,
// aCol=1 walks A's rows, aRow=1, aCol=m its columns — the A^T x B form).
// Each gemmBlockK-row panel of B goes to panelRowsVec, its rows addressed
// through a p·n table. Per output element the products still arrive in
// ascending p order through a single accumulator — in a register within a
// panel, carried through the destination between panels, exactly the
// blocked scalar kernels' schedule — so the result is bit-identical to them
// (and to the naive triple loop).
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
// skipping rows whose coefficient is ±0 (the scalar kernels' contract): the
// single-row panel, all of a batch-1 GEMV, on axpyPanelAVX's 64/16/8/1-wide
// column blocks. The coefficient stride walks a row of A (sa=1, the A x B
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

// MatMulTNAccumVec accumulates dst += A^T x B exactly like MatMulTNAccum —
// same shapes, same per-element reduction order, bit-identical results —
// with the inner row update vectorized. It is the batched path's
// FC-weight-gradient and conv-input-gradient kernel.
func MatMulTNAccumVec(dst, a, b *Tensor) {
	if dst.Rank() != 2 || a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTNAccumVec requires rank-2 tensors")
	}
	r, m := a.Dim(0), a.Dim(1)
	if b.Dim(0) != r || dst.Dim(0) != m || dst.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulTNAccumVec shape mismatch %v += %v^T x %v", dst.shape, a.shape, b.shape))
	}
	n := b.Dim(1)
	ad, bd, cd := a.data, b.data, dst.data
	if serialRows(m, r*m*n) {
		accumRowsVec(cd, ad, 1, m, bd, r, n, 0, m)
	} else {
		parallelRows(m, func(lo, hi int) { accumRowsVec(cd, ad, 1, m, bd, r, n, lo, hi) })
	}
}

// TransposeInto writes the transpose of the rank-2 src into the rank-2 dst
// (dst must be src.Dim(1) x src.Dim(0)). Pure data movement: the batched
// path uses it to feed Dense forward passes the (In x Out) weight layout the
// vector kernel needs.
func TransposeInto(dst, src *Tensor) {
	if dst.Rank() != 2 || src.Rank() != 2 || dst.Dim(0) != src.Dim(1) || dst.Dim(1) != src.Dim(0) {
		panic(fmt.Sprintf("tensor: TransposeInto shape mismatch %v vs %v", dst.shape, src.shape))
	}
	transposeInto(dst.data, src.Dim(0), src.data, src.Dim(1), src.Dim(0), src.Dim(1))
}
