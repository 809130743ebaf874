package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The float kernels, on their AVX bodies and on their portable twins, must
// be bit-identical to naive loops for every shape — including the SIMD
// fringe widths (64, 16, 8, scalar tails) and reduction panels crossing
// gemmBlockK — and for every 4-row/remainder row grouping. These tests sweep
// those boundaries with exact float32 bit comparison.

func requireSameBits(t *testing.T, label string, want, got *Tensor) {
	t.Helper()
	wd, gd := want.Data(), got.Data()
	if len(wd) != len(gd) {
		t.Fatalf("%s: length %d vs %d", label, len(wd), len(gd))
	}
	for i := range wd {
		if math.Float32bits(wd[i]) != math.Float32bits(gd[i]) {
			t.Fatalf("%s: element %d differs: %v (%#x) vs %v (%#x)",
				label, i, wd[i], math.Float32bits(wd[i]), gd[i], math.Float32bits(gd[i]))
		}
	}
}

// vecShapes crosses the kernels' dispatch boundaries: m covers the 4-row
// groups and remainders, n covers the 64/16/8/scalar column blocks, k covers
// single- and multi-panel reductions (gemmBlockK = 256). The last rows are
// FC1's batch-1 GEMV and the 64-column block's edges at m = 1, 5 and 9.
var vecShapes = []struct{ m, k, n int }{
	{1, 3, 1}, {2, 7, 5}, {3, 16, 8}, {4, 25, 17},
	{5, 300, 24}, {7, 64, 25}, {8, 513, 72}, {9, 31, 130},
	{1, 1024, 128},
	{1, 5, 63}, {1, 40, 64}, {1, 300, 65}, {1, 9, 127}, {1, 260, 192},
	{5, 5, 63}, {5, 40, 64}, {5, 17, 65}, {5, 9, 127}, {5, 260, 192},
	{9, 5, 63}, {9, 40, 64}, {9, 17, 65}, {9, 9, 127}, {9, 33, 192},
}

// accumRef is the naive accumulate loop both GEMMs answer to: dst[i][j] +=
// coef(i, p)·b[p][j] onto dst's own value, p ascending, a ±0 coefficient
// skipping its row of B.
func accumRef(dst *Tensor, coef func(i, p int) float32, b *Tensor) *Tensor {
	want := dst.Clone()
	m, k, n := dst.Dim(0), b.Dim(0), dst.Dim(1)
	wd, bd := want.Data(), b.Data()
	for i := range m {
		for p := range k {
			av := coef(i, p)
			if av == 0 {
				continue
			}
			for j, bv := range bd[p*n : (p+1)*n] {
				wd[i*n+j] += float32(av * bv)
			}
		}
	}
	return want
}

// TestMatMulAccumVecMatchesScalar holds MatMulAccum (dst += A·B), on the
// vector kernel and its portable twin, to the scalar loop accumRef.
func TestMatMulAccumVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	forEachFloatKernel(t, func(kernel string) {
		for _, s := range vecShapes {
			a := randTensor(rng, s.m, s.k)
			b, dst := randTensor(rng, s.k, s.n), randTensor(rng, s.m, s.n)
			want := accumRef(dst, func(i, p int) float32 { return a.At(i, p) }, b)
			got := dst.Clone()
			MatMulAccum(got, a, b)
			requireSameBits(t, fmt.Sprintf("%s MatMulAccum %dx%dx%d", kernel, s.m, s.k, s.n), want, got)
		}
	})
}

// TestMatMulTNAccumVecMatchesScalar holds MatMulTNAccum (dst += Aᵀ·B), on
// the vector kernel and its portable twin, to the scalar loop accumRef.
func TestMatMulTNAccumVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	forEachFloatKernel(t, func(kernel string) {
		for _, s := range vecShapes {
			aT := randTensor(rng, s.k, s.m)
			b, dst := randTensor(rng, s.k, s.n), randTensor(rng, s.m, s.n)
			want := accumRef(dst, func(i, p int) float32 { return aT.At(p, i) }, b)
			got := dst.Clone()
			MatMulTNAccum(got, aT, b)
			requireSameBits(t, fmt.Sprintf("%s MatMulTNAccum %dx%dx%d", kernel, s.m, s.k, s.n), want, got)
		}
	})
}

// TestPanelRowSkipsZeroCoefficients pins the single-row panel's ±0 skip on
// both kernels: for p ≡ 2 (mod 5), every row's coefficient p is +0 or -0
// and B's row p holds ±Inf and NaN, which only the skip keeps out of the
// sums. m stays below 4, the rows axpyPanel serves: the 4-row AVX block
// adds the ±0 products instead, equal to the skip for finite B.
func TestPanelRowSkipsZeroCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	poison := []float32{float32(math.Inf(1)), float32(math.NaN()), float32(math.Inf(-1))}
	forEachFloatKernel(t, func(kernel string) {
		for _, s := range vecShapes {
			m := min(s.m, 3)
			a, b := randTensor(rng, m, s.k), randTensor(rng, s.k, s.n)
			for p := 2; p < s.k; p += 5 {
				for i := range m {
					a.Data()[i*s.k+p] = float32(math.Copysign(0, float64(1-p%2*2)))
				}
				for j := range s.n {
					b.Data()[p*s.n+j] = poison[(p+j)%3]
				}
			}
			aT := New(s.k, m)
			TransposeInto(aT, a)
			dst := randTensor(rng, m, s.n)
			want := accumRef(dst, func(i, p int) float32 { return a.At(i, p) }, b)
			got := dst.Clone()
			MatMulAccum(got, a, b)
			requireSameBits(t, fmt.Sprintf("%s MatMulAccum %dx%dx%d", kernel, m, s.k, s.n), want, got)
			got = dst.Clone()
			MatMulTNAccum(got, aT, b)
			requireSameBits(t, fmt.Sprintf("%s MatMulTNAccum %dx%dx%d", kernel, m, s.k, s.n), want, got)
		}
	})
}

func TestAddScaledMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	coefs := []float32{0, float32(math.Copysign(0, -1)), 1, -0.37, float32(math.Inf(1)), float32(math.NaN())}
	forEachFloatKernel(t, func(kernel string) {
		// Lengths cross the AVX body's 32-wide, 8-wide and scalar tails.
		for _, n := range []int{1, 2, 7, 8, 9, 31, 32, 33, 39, 40, 41, 63, 64, 71, 100} {
			for _, s := range coefs {
				src := randTensor(rng, n)
				ref := randTensor(rng, n)
				got := ref.Clone()
				rd, sd := ref.Data(), src.Data()
				for i, v := range sd {
					rd[i] += float32(s * v)
				}
				got.AddScaled(src, s)
				requireSameBits(t, fmt.Sprintf("%s AddScaled n=%d s=%v", kernel, n, s), ref, got)
			}
		}
	})
}

// TestTransposeInto covers whole 8x8 blocks, ragged edges and rows or
// columns shorter than a block, on the AVX block and its portable twin.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	forEachFloatKernel(t, func(kernel string) {
		for _, s := range []struct{ m, n int }{{1, 1}, {3, 5}, {8, 8}, {5, 16}, {16, 3}, {32, 33}, {70, 129}} {
			src := randTensor(rng, s.m, s.n)
			dst := New(s.n, s.m)
			TransposeInto(dst, src)
			for i := 0; i < s.m; i++ {
				for j := 0; j < s.n; j++ {
					if math.Float32bits(dst.At(j, i)) != math.Float32bits(src.At(i, j)) {
						t.Fatalf("%s %dx%d transpose (%d,%d): %v vs %v", kernel, s.m, s.n, i, j, dst.At(j, i), src.At(i, j))
					}
				}
			}
		}
	})
}

// reluRef and reluGradRef are the rectifier's scalar branches.
func reluRef(src []float32) *Tensor {
	want := New(len(src))
	wd := want.Data()
	for i, v := range src {
		if v > 0 {
			wd[i] = v
		} else {
			wd[i] = 0
		}
	}
	return want
}

func reluGradRef(grad, ref []float32) *Tensor {
	want := New(len(grad))
	wd := want.Data()
	for i, r := range ref {
		if r > 0 {
			wd[i] = grad[i]
		} else {
			wd[i] = 0
		}
	}
	return want
}

func TestReluIntoMatchesScalarBranch(t *testing.T) {
	// Includes the special values whose handling the SIMD kernel's
	// instruction semantics must reproduce: -0 and NaN both map to +0.
	src := FromSlice([]float32{
		1.5, -2, 0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), 1e-38, -1e-38,
		3, -3, 0.25, -0.25, 7, -7, 42, -42, 0.5,
	}, 18)
	grad := FromSlice([]float32{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, float32(math.NaN()), 16, 17, 18,
	}, 18)
	forEachFloatKernel(t, func(kernel string) {
		got := New(18)
		ReluInto(got, src)
		requireSameBits(t, kernel+" ReluInto", reluRef(src.Data()), got)
		gotG := New(18)
		ReluGradInto(gotG, grad, got)
		requireSameBits(t, kernel+" ReluGradInto", reluGradRef(grad.Data(), got.Data()), gotG)
	})
}

// TestReluIntoLongRows crosses the AVX bodies' 8-wide and scalar tails.
func TestReluIntoLongRows(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	forEachFloatKernel(t, func(kernel string) {
		for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 64, 100} {
			src, grad := randTensor(rng, n), randTensor(rng, n)
			got := New(n)
			ReluInto(got, src)
			requireSameBits(t, fmt.Sprintf("%s ReluInto n=%d", kernel, n), reluRef(src.Data()), got)
			gotG := New(n)
			ReluGradInto(gotG, grad, src)
			requireSameBits(t, fmt.Sprintf("%s ReluGradInto n=%d", kernel, n), reluGradRef(grad.Data(), src.Data()), gotG)
		}
	})
}

// specials are the values whose handling the elementwise kernels' instruction
// semantics must reproduce.
var specials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, -1e-40, 3.5,
}

// forEachSpecialSlice calls f with slices of every length 0..40, and of 71
// and 104 (several 32-wide blocks per accumulator), at element offsets 0
// (8-aligned) and 3, on a background of random values or of ±0, with each
// special value at each position in turn.
func forEachSpecialSlice(rng *rand.Rand, f func(x []float32)) {
	buf := make([]float32, 112)
	for n := 0; n <= 104; n++ {
		if n > 40 && n != 71 && n != 104 {
			continue
		}
		for _, off := range []int{0, 3} {
			for _, zeros := range []bool{false, true} {
				for pos := range n {
					for _, v := range specials {
						x := buf[off : off+n]
						for i := range x {
							x[i] = float32(rng.NormFloat64())
							if zeros {
								x[i] = float32(math.Copysign(0, float64(i%2*2-1)))
							}
						}
						x[pos] = v
						f(x)
					}
				}
			}
		}
	}
}

// maxAbsRef is MaxAbs's portable loop.
func maxAbsRef(x []float32) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// TestMaxAbsMatchesScalar holds MaxAbs, on the AVX kernel and on its twin,
// to the float64 loop: NaN ignored, ±Inf counted, -0 read as 0, subnormals
// kept.
func TestMaxAbsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	forEachFloatKernel(t, func(kernel string) {
		forEachSpecialSlice(rng, func(x []float32) {
			want, got := maxAbsRef(x), vector(x).MaxAbs()
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s MaxAbs(%v) = %v, want %v", kernel, x, got, want)
			}
		})
	})
}

// TestScaleMatchesScalar holds Scale, on the AVX kernel and on its twin, to
// the float32 loop bit for bit.
func TestScaleMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	scales := []float32{0.37, -2, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), 1e-39}
	forEachFloatKernel(t, func(kernel string) {
		forEachSpecialSlice(rng, func(x []float32) {
			s := scales[rng.Intn(len(scales))]
			want := append([]float32(nil), x...)
			for i := range want {
				want[i] *= s
			}
			vector(x).Scale(s)
			for i := range x {
				if math.Float32bits(want[i]) != math.Float32bits(x[i]) {
					t.Fatalf("%s Scale(%v) element %d = %#x, want %#x", kernel, s, i, math.Float32bits(x[i]), math.Float32bits(want[i]))
				}
			}
		})
	})
}

// vector wraps x as a rank-1 tensor, the zero Tensor when x is
// empty (FromSlice refuses a zero dimension).
func vector(x []float32) *Tensor {
	if len(x) == 0 {
		return &Tensor{}
	}
	return FromSlice(x, len(x))
}

// FuzzPanelRow holds the batch-1 GEMV dst += a·B — the single-row panel —
// on both kernels to accumRef, on FuzzConvForward's ±0-heavy palette.
func FuzzPanelRow(f *testing.F) {
	f.Add(uint64(0), []byte{0, 1, 2, 3})
	f.Add(uint64(1023*301+127), []byte{9, 8, 1, 0, 200, 17})
	f.Add(uint64(255*301+64), []byte{255, 1, 1, 0, 0, 128})
	f.Fuzz(func(t *testing.T, geom uint64, data []byte) {
		if len(data) == 0 {
			return
		}
		n, k := 1+int(geom%300), 1+int(geom/300%1100)
		fill := paletteFill(data)
		a, b, dst := fill(New(1, k)), fill(New(k, n)), fill(New(1, n))
		want := accumRef(dst, func(_, p int) float32 { return a.At(0, p) }, b)
		forEachFloatKernel(t, func(kernel string) {
			got := dst.Clone()
			MatMulAccum(got, a, b)
			requireSameBits(t, fmt.Sprintf("%s 1x%dx%d", kernel, k, n), want, got)
		})
	})
}

// FuzzMaxAbs reads the input as raw float32 words — every NaN payload, ±Inf,
// -0 and subnormal occurs — and holds MaxAbs on both kernels to the float64
// loop, at the slice's start and past an offset.
func FuzzMaxAbs(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0, 0x80})
	f.Add(uint8(3), bytes.Repeat([]byte{1, 0, 0, 0, 0xff, 0xff, 0x7f, 0x7f}, 9))
	f.Fuzz(func(t *testing.T, off uint8, data []byte) {
		x := make([]float32, len(data)/4)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		x = x[min(int(off%8), len(x)):]
		want := maxAbsRef(x)
		forEachFloatKernel(t, func(kernel string) {
			if got := vector(x).MaxAbs(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s MaxAbs = %v, want %v", kernel, got, want)
			}
		})
	})
}
