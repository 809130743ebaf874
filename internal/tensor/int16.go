package tensor

// Int16 kernels for the quantized engine (internal/qnn), which serves and
// trains on one datapath: the register-blocked GEMM MatMul16T and the int64
// gradient kernel AxpyPanel16 here, the input quantizer Quantize16 in
// quantize16.go, the direct convolution in conv16.go, and in epilogue16.go
// the CHW transpose and the one epilogue, Narrow64.
//
// Accumulation contract — deliberately not a MAC unit that saturates after
// every step: products are widened to int32 and summed with two's-complement
// wrap-around, and saturation (if the caller wants any) happens exactly once
// when the caller narrows the finished accumulator. Wrap-around addition mod
// 2^32 is associative and commutative, so the AVX2 kernels' lane orders are
// bit-identical to the scalar left-to-right loop — the property the
// unconditional asm-vs-scalar identity tests and fuzzers assert. Here a GEMM
// word is VPMADDWD pairs summed in 8 lanes per 16-word block, the lanes
// folded with VPHADDD across the tile's four words at once, the k%16 words
// after that added left to right; in the convolution each output channel
// owns one accumulator lane per pixel. Per-step saturating accumulation has
// no such reordering freedom, so nothing saturating can be vectorized this
// way; qnn runs its one walk — training, batched inference and the lone
// frame — on these kernels.
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
// every output element is a dot product of two contiguous rows. It runs on
// the calling goroutine only: on two cores, fanning its rows out above
// parallelFlops made neither int16 path it was measured on faster end to
// end (the serve workers, the quant-train L3 loop), and made the quant-train
// E2E learner, whose batch-32 convs and FC1 are 2.1M–4.2M multiply-adds,
// 6–8 % slower even with a single actor.
//
// The kernel is register-blocked: a tile is one row of a against four rows
// of bT, so each loaded block of a feeds four accumulators, and one fold
// stores the tile's four words (the AVX2 body takes two rows of a per tile
// where it can, loading each bT block once for both). The asm covers the
// first k&^15 words of every whole tile; the tile's portable twin,
// mul16T4Go, adds the k%16 words left (or, without AVX2, computes the whole
// tile), and the n%4 columns past the last tile are one dot16 each.
func MatMul16T(dst []int32, a, bT []int16, m, k, n int) {
	if len(a) < m*k || len(bT) < n*k || len(dst) < m*n {
		panic("tensor: MatMul16T operands shorter than m×k, n×k and m×n")
	}
	n4 := n &^ 3
	done := mul16TVec(dst[:m*n], a[:m*k], bT, m, k, n)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		// done == k > 0: the asm left nothing of the tiles to do.
		if done == 0 || done < k {
			for j := 0; j < n4; j += 4 {
				mul16T4Go(drow[j:j+4], arow, bT[j*k:(j+4)*k], done)
			}
		}
		for j := n4; j < n; j++ {
			drow[j] = dot16(arow, bT[j*k:(j+1)*k])
		}
	}
}

// mul16T4Go is the tile's portable twin: the four words d[q] = Σ_p
// a[p]·b[q·k+p] of one row of a against four consecutive rows of bT (k =
// len(a)), or, for from > 0, d[q] += the same sum over p ≥ from only.
func mul16T4Go(d []int32, a, b []int16, from int) {
	k := len(a)
	var s0, s1, s2, s3 int32
	if from > 0 {
		s0, s1, s2, s3 = d[0], d[1], d[2], d[3]
	}
	a = a[from:]
	n := len(a)
	b0, b1, b2, b3 := b[from:][:n], b[k+from:][:n], b[2*k+from:][:n], b[3*k+from:][:n]
	for p, av := range a {
		x := int32(av)
		s0 += x * int32(b0[p])
		s1 += x * int32(b1[p])
		s2 += x * int32(b2[p])
		s3 += x * int32(b3[p])
	}
	d[0], d[1], d[2], d[3] = s0, s1, s2, s3
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
