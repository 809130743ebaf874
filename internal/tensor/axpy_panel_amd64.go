//go:build amd64

package tensor

// useFloatAVX selects every AVX float kernel; without AVX each kernel's
// portable twin runs, the loop every other arch runs.
var useFloatAVX = hasAVX

// axpyPanelAVX accumulates dst[j] += sum_{p<k} a[p*sa] * b[offs[p]+j] for
// j < n. Per output element the products arrive in ascending p order, each
// as a VMULPS followed by a VADDPS (two roundings, never FMA), so the result is
// bit-identical to k sequential saxpyRow calls — but the accumulator lives in
// a register across the whole panel, loading and storing dst once per column
// block (64, 16, 8 or one wide) instead of once per p. Rows of b whose a
// coefficient is ±0 are skipped, the GEMMs' ±0 contract.
//
//go:noescape
func axpyPanelAVX(dst, a, b *float32, offs *int, sa, k, n int)

// axpyPanel4AVX is the four-destination-row variant: dst[r*n+j] +=
// sum_{p<k} a[rows[r] + p*aCol] * b[offs[p]+j] for r in 0..3, A's rows being
// wherever rows says — a dense A's r·aRow, or a convolution tap's run over
// stride-phase planes (ConvGradInto). Identical per-element semantics to four
// axpyPanelAVX calls (each row has its own accumulators, ascending p, two
// roundings per step) with each b row loaded once for all four destinations.
//
//go:noescape
func axpyPanel4AVX(dst, a, b *float32, rows, offs *int, aCol, k, n int)

// transpose8AVX writes the transpose of the 8x8 block at src (row stride
// lds) to dst (row stride ldd): pure data movement, so bit-identical to the
// portable block in transposeInto.
//
//go:noescape
func transpose8AVX(dst *float32, ldd int, src *float32, lds int)

// The elementwise bodies take whole 8-wide blocks, their callers the rest
// on the portable loop. maxAbsAVX returns max |x[i]| for i < n, ignoring NaN
// (Tensor.MaxAbs); scaleAVX multiplies x[i] by s (Tensor.Scale); biasRowsAVX
// writes dst[r*w+j] = src[r*ld+j] + b for r < rows, j < w (ConvInto's bias
// epilogue, one output channel).

//go:noescape
func maxAbsAVX(x *float32, n int) float32

//go:noescape
func scaleAVX(x *float32, n int, s float32)

//go:noescape
func biasRowsAVX(dst, src *float32, rows, w, ld int, b float32)
