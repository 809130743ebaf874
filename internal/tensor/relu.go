package tensor

// ReluInto writes the rectifier dst[i] = max(src[i], 0) elementwise. The
// result is bit-identical to the scalar branch `if v > 0 { dst[i] = v } else
// { dst[i] = 0 }` for every input, including -0 and NaN (both map to +0), so
// the layers can use the SIMD kernel and still match a scalar loop exactly.
// Lengths must match; dst and src may alias.
func ReluInto(dst, src *Tensor) {
	if len(dst.data) != len(src.data) {
		panic("tensor: ReluInto length mismatch")
	}
	reluRow(dst.data, src.data)
}

// ReluGradInto writes dst[i] = grad[i] where ref[i] > 0 and +0 elsewhere —
// the rectifier's backward mask, with the forward *output* as the reference
// (out > 0 exactly when the forward input was > 0). Bit-identical to the
// scalar mask branch for every input. Lengths must match; dst may alias grad.
func ReluGradInto(dst, grad, ref *Tensor) {
	if len(dst.data) != len(grad.data) || len(dst.data) != len(ref.data) {
		panic("tensor: ReluGradInto length mismatch")
	}
	reluGradRow(dst.data, grad.data, ref.data)
}
