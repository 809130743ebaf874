package tensor

// Int16 kernels for the quantized engine (internal/qnn), which serves and
// trains on one datapath: the Dot16 GEMM and the int64 gradient kernel
// AxpyPanel16 here, the direct convolution in conv16.go, and in epilogue16.go
// the CHW transpose and the one epilogue, Narrow64.
//
// Accumulation contract — deliberately different from the PE-datapath
// primitives in internal/fixed: products are widened to int32 and summed with
// two's-complement wrap-around, and saturation (if the caller wants any)
// happens exactly once when the caller narrows the finished accumulator.
// Wrap-around addition mod 2^32 is associative and commutative, so the AVX2
// kernels' lane orders (VPMADDWD pairs, then a tree reduction here; one
// accumulator lane per output channel in the convolution) are bit-identical
// to the scalar left-to-right loop — the property the unconditional
// asm-vs-scalar identity tests assert. Per-step saturating accumulation
// (fixed.MAC) has no such reordering freedom, so nothing saturating can be
// vectorized this way; qnn runs its one walk — training, batched inference
// and the lone frame — on these kernels.
//
// The range discipline callers must uphold: the wrapped int32 equals the
// true sum exactly when the true sum fits int32 (intermediate wraps cancel).
// With Q7.8 activations and Q2.13 weights every product is < 2^30, so a row
// needs ~2^2 terms to overflow in the worst case but > 2^17 terms under the
// trained-weight magnitudes the qnn package bounds. Every forward reduction
// of the quantized engine runs under this contract, Dense and Conv, and qnn
// states the precondition as tests rather than a comment:
// TestTrainAccumulatorHeadroom measures the true 64-bit sums of every layer
// on real frames and holds them 8 bits under the int32 horizon, and
// TestQuantInferBatchBitIdentical holds the walk to a scalar int64 loop word
// for word.

// Dot16 returns the dot product of a and b widened to int32 with
// wrap-around accumulation. b must be at least as long as a; extra elements
// of b are ignored.
func Dot16(a, b []int16) int32 {
	if len(a) == 0 {
		return 0
	}
	return dot16(a, b[:len(a)])
}

// dot16Scalar is the portable reference kernel: the asm paths must match it
// bit for bit on every input.
func dot16Scalar(a, b []int16) int32 {
	var acc int32
	for i, av := range a {
		acc += int32(av) * int32(b[i])
	}
	return acc
}

// MatMul16T computes the row-major (m × n) product dst = a × bᵀ where a is
// row-major (m × k) and bT is the row-major (n × k) *transpose* of b, so
// every output element is a dot product of two contiguous rows. Rows of dst
// are independent and the kernel parallelizes over them above the same
// flops threshold as the float GEMMs; per-element results are identical
// either way.
func MatMul16T(dst []int32, a, bT []int16, m, k, n int) {
	// Branch before constructing the parallel closure (the serialRows
	// contract): the serial schedule must allocate nothing.
	if serialRows(m, m*n*k) {
		mul16TRows(dst, a, bT, k, n, 0, m)
		return
	}
	parallelRows(m, func(lo, hi int) { mul16TRows(dst, a, bT, k, n, lo, hi) })
}

func mul16TRows(dst []int32, a, bT []int16, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			drow[j] = Dot16(arow, bT[j*k:(j+1)*k])
		}
	}
}

// AxpyPanel16 is the int16 training engine's gradient kernel, the integer
// counterpart of the float GEMMs' axpyPanel: for every j < len(dst),
//
//	dst[j] += Σ_{p < len(offs)} int64(a[p·sa]) · int64(b[offs[p]+j])
//
// skipping every p whose coefficient is zero. An int16 product is exact in
// int64, and so is any sum of fewer than 2^33 of them, so every order gives
// the same words: the AVX2 body takes whole 16-column blocks, the portable
// twin the rest, and they agree bit for bit.
func AxpyPanel16(dst []int64, a []int16, sa int, b []int16, offs []int) {
	n := len(dst)
	if n == 0 || len(offs) == 0 {
		return
	}
	// The asm reads unchecked: every coefficient and every b row must exist.
	_ = a[(len(offs)-1)*sa]
	for _, o := range offs {
		_ = b[o : o+n]
	}
	if done := axpyPanel16Vec(dst, a, sa, b, offs); done < n {
		axpyPanel16Go(dst[done:], a, sa, b[done:], offs)
	}
}

// axpyPanel16Go is AxpyPanel16's twin.
func axpyPanel16Go(dst []int64, a []int16, sa int, b []int16, offs []int) {
	for p, o := range offs {
		if av := int64(a[p*sa]); av != 0 {
			for j, bv := range b[o : o+len(dst)] {
				dst[j] += av * int64(bv)
			}
		}
	}
}
