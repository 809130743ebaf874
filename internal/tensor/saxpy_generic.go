//go:build !amd64

package tensor

// saxpyRow accumulates dst[i] += a * src[i] for i < len(dst); src must be at
// least as long as dst. Portable reference implementation; amd64 builds
// replace it with a SIMD kernel (see saxpy_amd64.go) that performs the exact
// same elementwise multiply-then-add — no fused multiply-add, no
// reassociation — so results are bit-identical across builds. The explicit
// conversion rounds the product, so no arch may fuse it into the add.
func saxpyRow(dst, src []float32, a float32) {
	for i, v := range src[:len(dst)] {
		dst[i] += float32(a * v)
	}
}
