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
// This is why the layers stack their operands the way they do (transposed
// im2col panels, minibatch rows): the batch/spatial axis lies contiguous in
// memory, giving saxpyRow long unit-stride rows. A dot-product formulation
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
		accumRowsVec(cd, ad, bd, k, n, 0, m)
	} else {
		parallelRows(m, func(lo, hi int) { accumRowsVec(cd, ad, bd, k, n, lo, hi) })
	}
}

// accumRowsVec is accumRows with each (row, reduction-panel) pair issued as
// one axpyPanel call: per output element the products still arrive in
// ascending p order through a single accumulator — in a register within a
// panel, carried through the destination between panels, exactly the blocked
// scalar kernel's schedule — so the result is bit-identical to the scalar
// kernel (and to the naive triple loop).
func accumRowsVec(cd, ad, bd []float32, k, n, lo, hi int) {
	for p0 := 0; p0 < k; p0 += gemmBlockK {
		p1 := min(p0+gemmBlockK, k)
		i := lo
		if useAxpyPanelAsm {
			for ; i+3 < hi; i += 4 {
				axpyPanel4AVX(&cd[i*n], &ad[i*k+p0], &bd[p0*n], k, 1, p1-p0, n)
			}
		}
		for ; i < hi; i++ {
			axpyPanel(cd[i*n:(i+1)*n], ad[i*k+p0:], 1, bd[p0*n:], p1-p0, n)
		}
	}
}

// axpyPanel accumulates dst[j] += sum_{p<k} a[p*sa] * b[p*n+j] for j < n:
// the inner panel of every vectorized GEMM. The coefficient stride sa lets
// the same kernel walk a row of A (sa=1, the A x B form) or a column of A
// (sa=m, the A^T x B form). Rows whose coefficient is ±0 are skipped — the
// scalar kernels' zero-skip contract.
func axpyPanel(dst, a []float32, sa int, b []float32, k, n int) {
	if k <= 0 || n <= 0 {
		return
	}
	if useAxpyPanelAsm {
		axpyPanelAVX(&dst[0], &a[0], &b[0], sa, k, n)
		return
	}
	for p := 0; p < k; p++ {
		av := a[p*sa]
		if av == 0 {
			continue
		}
		saxpyRow(dst[:n], b[p*n:p*n+n], av)
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
		tnRowsVec(cd, ad, bd, r, m, n, 0, m)
	} else {
		parallelRows(m, func(lo, hi int) { tnRowsVec(cd, ad, bd, r, m, n, lo, hi) })
	}
}

// tnRowsVec accumulates the dst rows [lo, hi) of the A^T*B kernel, one
// axpyPanel call per (row, reduction-panel) with the coefficients strided
// down a column of A. The reduction index t stays ascending per output
// element — the serial sample order of the batched gradient contract.
func tnRowsVec(cd, ad, bd []float32, r, m, n, lo, hi int) {
	for t0 := 0; t0 < r; t0 += gemmBlockK {
		t1 := min(t0+gemmBlockK, r)
		i := lo
		if useAxpyPanelAsm {
			for ; i+3 < hi; i += 4 {
				axpyPanel4AVX(&cd[i*n], &ad[t0*m+i], &bd[t0*n], 1, m, t1-t0, n)
			}
		}
		for ; i < hi; i++ {
			axpyPanel(cd[i*n:(i+1)*n], ad[t0*m+i:], m, bd[t0*n:], t1-t0, n)
		}
	}
}

// TransposeInto writes the transpose of the rank-2 src into the rank-2 dst
// (dst must be src.Dim(1) x src.Dim(0)), tiled so both sides stay cache
// resident. Pure data movement: the batched path uses it to keep both the
// patch-major and channel-major im2col layouts, and to feed Dense forward
// passes the (In x Out) weight layout the vector kernel needs.
func TransposeInto(dst, src *Tensor) {
	if dst.Rank() != 2 || src.Rank() != 2 || dst.Dim(0) != src.Dim(1) || dst.Dim(1) != src.Dim(0) {
		panic(fmt.Sprintf("tensor: TransposeInto shape mismatch %v vs %v", dst.shape, src.shape))
	}
	transposeInto(dst.data, src.data, src.Dim(0), src.Dim(1))
}
