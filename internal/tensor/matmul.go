package tensor

import "fmt"

// The GEMM kernels below are cache-blocked and goroutine-parallel, but every
// output element is still accumulated by a single goroutine in ascending
// reduction-index order with one accumulator. That makes each kernel
// bit-identical to its textbook serial loop for any GOMAXPROCS, which is what
// lets the parallel experiment engine (internal/core) promise results equal
// to the serial schedule.
//
// Every product is converted to float32 before its add, so no architecture
// fuses the pair into one rounding (arm64 would).
//
// Each kernel's row loop is a named function dispatched through runRows:
// small kernels call it directly on the calling goroutine with no closure in
// sight, so the steady-state training path performs zero heap allocations
// (the batched-path contract, pinned by AllocsPerRun tests); only kernels
// large enough to fan out pay for the closure and WaitGroup of the
// goroutine schedule.

// gemmBlockK is the reduction-panel height: a panel of B (gemmBlockK x n
// float32s) is kept hot across all rows of A instead of streaming B once per
// row.
const gemmBlockK = 256

// ntTileJ is the column tile of the A*B^T kernel: tile rows of B are reused
// across a register block of four A rows.
const ntTileJ = 8

// MatMul computes C = A x B for 2-D tensors A (m x k) and B (k x n),
// writing into a freshly allocated m x n tensor. B is transposed into a
// scratch buffer first so the register-blocked dot-product kernel can run
// with both operands contiguous; because C starts at exactly zero, the
// register accumulator chains the same ascending-p additions the saxpy loop
// would, and the result is bit-identical to the naive triple loop.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %d vs %d", k, k2))
	}
	bt := New(n, k)
	transposeInto(bt.data, k, b.data, n, k, n)
	c := New(m, n)
	MatMulNTInto(c, a, bt)
	return c
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

// MatMulAccum accumulates dst += A x B for A (m x k), B (k x n) and a
// pre-allocated dst (m x n). This is the weight-gradient primitive of
// GEMM-based convolution backprop: dW += dOut x im2col(input).
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
		accumRows(cd, ad, bd, k, n, 0, m)
	} else {
		parallelRows(m, func(lo, hi int) { accumRows(cd, ad, bd, k, n, lo, hi) })
	}
}

// accumRows is the shared blocked ikj kernel over output rows [lo, hi):
// panels of B stay cache hot across the rows of each chunk, and zero A
// entries skip their row of B. Per output element the products are added in
// ascending p order with direct accumulation onto the destination, exactly
// as the naive triple loop does — the accumulate semantics pin the kernel to
// this saxpy form, because a register-blocked dot product would fold the
// whole update into one addition and round differently.
func accumRows(cd, ad, bd []float32, k, n, lo, hi int) {
	for p0 := 0; p0 < k; p0 += gemmBlockK {
		p1 := min(p0+gemmBlockK, k)
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			crow := cd[i*n : (i+1)*n]
			for p := p0; p < p1; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := bd[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += float32(av * bv)
				}
			}
		}
	}
}

// MatMulNTInto computes dst = A x B^T for A (m x k), B (n x k) and a
// pre-allocated dst (m x n), i.e. dst[i][j] = <A[i], B[j]>. Both operands
// are traversed along their contiguous axis, which is why GEMM convolution
// prefers this form: dOut = W x im2col(input)^T. A register block of four A
// rows shares each load of a B row.
func MatMulNTInto(dst, a, b *Tensor) {
	if dst.Rank() != 2 || a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulNTInto requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 || dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulNTInto shape mismatch %v = %v x %v^T", dst.shape, a.shape, b.shape))
	}
	ad, bd, cd := a.data, b.data, dst.data
	if serialRows(n, m*k*n) {
		ntCols(cd, ad, bd, m, k, n, 0, n)
	} else {
		parallelRows(n, func(lo, hi int) { ntCols(cd, ad, bd, m, k, n, lo, hi) })
	}
}

// ntCols computes the dst columns [lo, hi) of the A*B^T kernel.
func ntCols(cd, ad, bd []float32, m, k, n, lo, hi int) {
	for j0 := lo; j0 < hi; j0 += ntTileJ {
		j1 := min(j0+ntTileJ, hi)
		i := 0
		for ; i+3 < m; i += 4 {
			a0 := ad[i*k : (i+1)*k]
			a1 := ad[(i+1)*k : (i+2)*k]
			a2 := ad[(i+2)*k : (i+3)*k]
			a3 := ad[(i+3)*k : (i+4)*k]
			for j := j0; j < j1; j++ {
				brow := bd[j*k : (j+1)*k]
				var s0, s1, s2, s3 float32
				for t, bv := range brow {
					s0 += float32(a0[t] * bv)
					s1 += float32(a1[t] * bv)
					s2 += float32(a2[t] * bv)
					s3 += float32(a3[t] * bv)
				}
				cd[i*n+j] = s0
				cd[(i+1)*n+j] = s1
				cd[(i+2)*n+j] = s2
				cd[(i+3)*n+j] = s3
			}
		}
		for ; i < m; i++ {
			arow := ad[i*k : (i+1)*k]
			for j := j0; j < j1; j++ {
				brow := bd[j*k : (j+1)*k]
				var s float32
				for t, bv := range brow {
					s += float32(arow[t] * bv)
				}
				cd[i*n+j] = s
			}
		}
	}
}

// MatMulTNAccum accumulates dst += A^T x B for A (r x m), B (r x n) and a
// pre-allocated dst (m x n), i.e. dst[i][j] += sum_t A[t][i]*B[t][j]. This is
// the input-gradient primitive of GEMM convolution backprop:
// d(im2col cols) += dOut^T x W, without materializing either transpose. A
// register block of four dst rows shares each load of a B row; rows of A that
// are entirely zero for the block skip their row of B.
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
		tnRows(cd, ad, bd, r, m, n, 0, m)
	} else {
		parallelRows(m, func(lo, hi int) { tnRows(cd, ad, bd, r, m, n, lo, hi) })
	}
}

// tnRows accumulates the dst rows [lo, hi) of the A^T*B kernel.
func tnRows(cd, ad, bd []float32, r, m, n, lo, hi int) {
	i := lo
	for ; i+3 < hi; i += 4 {
		d0 := cd[i*n : (i+1)*n]
		d1 := cd[(i+1)*n : (i+2)*n]
		d2 := cd[(i+2)*n : (i+3)*n]
		d3 := cd[(i+3)*n : (i+4)*n]
		for t := 0; t < r; t++ {
			g0 := ad[t*m+i]
			g1 := ad[t*m+i+1]
			g2 := ad[t*m+i+2]
			g3 := ad[t*m+i+3]
			if g0 == 0 && g1 == 0 && g2 == 0 && g3 == 0 {
				continue
			}
			brow := bd[t*n : (t+1)*n]
			for q, bv := range brow {
				d0[q] += float32(g0 * bv)
				d1[q] += float32(g1 * bv)
				d2[q] += float32(g2 * bv)
				d3[q] += float32(g3 * bv)
			}
		}
	}
	for ; i < hi; i++ {
		drow := cd[i*n : (i+1)*n]
		for t := 0; t < r; t++ {
			g := ad[t*m+i]
			if g == 0 {
				continue
			}
			brow := bd[t*n : (t+1)*n]
			for q, bv := range brow {
				drow[q] += float32(g * bv)
			}
		}
	}
}
