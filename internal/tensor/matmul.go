package tensor

import "fmt"

// The float GEMMs are one family: MatMul and MatMulNTInto are MatMulAccum
// onto a zeroed destination, and MatMulAccum and MatMulTNAccum run the panel
// kernels of matmul_vec.go. Every output element is accumulated by a single
// goroutine, in ascending reduction-index order, through one accumulator, so
// each kernel is bit-identical to its textbook serial loop for any
// GOMAXPROCS — what lets the parallel experiment engine (internal/core)
// promise results equal to the serial schedule.
//
// The ±0 contract: a coefficient of A that is ±0 skips its row of B. The
// four-row AVX block adds those ±0 products instead, which leaves every sum
// as the skip would unless B holds a non-finite value or dst a -0 there; no
// layer feeds either.

// MatMul computes C = A x B for 2-D tensors A (m x k) and B (k x n),
// writing into a freshly allocated m x n tensor.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	if a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %d vs %d", a.Dim(1), b.Dim(0)))
	}
	c := New(a.Dim(0), b.Dim(1))
	MatMulAccum(c, a, b)
	return c
}

// MatMulAccum accumulates dst += A x B for A (m x k), B (k x n) and a
// pre-allocated dst (m x n): the batched Dense forward and input-gradient
// kernel.
func MatMulAccum(dst, a, b *Tensor) {
	if dst.Rank() != 2 || a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulAccum requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	if b.Dim(0) != k || dst.Dim(0) != m || dst.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulAccum shape mismatch %v += %v x %v", dst.shape, a.shape, b.shape))
	}
	n := b.Dim(1)
	cd, ad, bd := dst.data, a.data, b.data
	if serialRows(m, m*k*n) {
		accumRowsVec(cd, ad, k, 1, bd, k, n, 0, m)
	} else {
		parallelRows(m, func(lo, hi int) { accumRowsVec(cd, ad, k, 1, bd, k, n, lo, hi) })
	}
}

// MatMulNTInto computes dst = A x B^T for A (m x k), B (n x k) and a
// pre-allocated dst (m x n), i.e. dst[i][j] = <A[i], B[j]>: B is transposed
// into scratch and dst zeroed, then MatMulAccum runs.
func MatMulNTInto(dst, a, b *Tensor) {
	if dst.Rank() != 2 || a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulNTInto requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulNTInto shape mismatch %v = %v x %v^T", dst.shape, a.shape, b.shape))
	}
	bt := New(k, n)
	transposeInto(bt.data, n, b.data, k, n, k)
	dst.Zero()
	MatMulAccum(dst, a, bt)
}

// MatMulTNAccum accumulates dst += A^T x B for A (r x m), B (r x n) and a
// pre-allocated dst (m x n), i.e. dst[i][j] += sum_t A[t][i]*B[t][j],
// without materializing the transpose: the batched Dense weight-gradient
// kernel.
func MatMulTNAccum(dst, a, b *Tensor) {
	if dst.Rank() != 2 || a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTNAccum requires rank-2 tensors")
	}
	r, m := a.Dim(0), a.Dim(1)
	if b.Dim(0) != r || dst.Dim(0) != m || dst.Dim(1) != b.Dim(1) {
		panic(fmt.Sprintf("tensor: MatMulTNAccum shape mismatch %v += %v^T x %v", dst.shape, a.shape, b.shape))
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

// transposeInto writes the n x m transpose of the m x n src, whose rows lie
// lds apart, into dst, whose rows lie ldd apart: dst[j*ldd+i] = src[i*lds+j].
// It goes in 8x8 blocks, each written as eight eight-wide dst row runs — in
// registers on AVX (transpose8AVX) — then the ragged edges.
func transposeInto(dst []float32, ldd int, src []float32, lds, m, n int) {
	i := 0
	for ; i+8 <= m; i += 8 {
		j := 0
		for ; j+8 <= n; j += 8 {
			if useFloatAVX {
				transpose8AVX(&dst[j*ldd+i], ldd, &src[i*lds+j], lds)
				continue
			}
			for t := j; t < j+8; t++ {
				d := (*[8]float32)(dst[t*ldd+i:])
				for u := range d {
					d[u] = src[(i+u)*lds+t]
				}
			}
		}
		for ; j < n; j++ {
			for t := i; t < i+8; t++ {
				dst[j*ldd+t] = src[t*lds+j]
			}
		}
	}
	for ; i < m; i++ {
		for j, v := range src[i*lds : i*lds+n] {
			dst[j*ldd+i] = v
		}
	}
}
