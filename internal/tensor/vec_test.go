package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The vectorized batched-path kernels must be bit-identical to the scalar
// reference kernels for every shape — including the SIMD fringe widths (16,
// 8, scalar tails) and reduction panels crossing gemmBlockK — and for every
// 4-row/remainder row grouping. These tests sweep those boundaries with
// exact float32 bit comparison.

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
// groups and remainders, n covers the 16/8/scalar column blocks, k covers
// single- and multi-panel reductions (gemmBlockK = 256).
var vecShapes = []struct{ m, k, n int }{
	{1, 3, 1}, {2, 7, 5}, {3, 16, 8}, {4, 25, 17},
	{5, 300, 24}, {7, 64, 25}, {8, 513, 72}, {9, 31, 130},
}

func TestMatMulAccumVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, s := range vecShapes {
		a := randTensor(rng, s.m, s.k)
		b := randTensor(rng, s.k, s.n)
		ref := randTensor(rng, s.m, s.n)
		got := ref.Clone()
		MatMulAccum(ref, a, b)
		MatMulAccumVec(got, a, b)
		requireSameBits(t, "MatMulAccumVec", ref, got)
	}
}

func TestMatMulTNAccumVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, s := range vecShapes {
		a := randTensor(rng, s.k, s.m)
		b := randTensor(rng, s.k, s.n)
		ref := randTensor(rng, s.m, s.n)
		got := ref.Clone()
		MatMulTNAccum(ref, a, b)
		MatMulTNAccumVec(got, a, b)
		requireSameBits(t, "MatMulTNAccumVec", ref, got)
	}
}

func TestAddScaledMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	// Lengths cross the saxpy kernel's 32-wide, 8-wide and scalar tails.
	for _, n := range []int{1, 2, 7, 8, 9, 31, 32, 33, 63, 100} {
		for _, s := range []float32{0, 1, -0.37, float32(math.Inf(1))} {
			src := randTensor(rng, n)
			ref := randTensor(rng, n)
			got := ref.Clone()
			rd, sd := ref.Data(), src.Data()
			for i, v := range sd {
				rd[i] += float32(s * v)
			}
			got.AddScaled(src, s)
			requireSameBits(t, "AddScaled", ref, got)
		}
	}
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

func TestReluIntoMatchesScalarBranch(t *testing.T) {
	// Includes the special values whose handling the SIMD kernel's
	// instruction semantics must reproduce: -0 and NaN both map to +0.
	src := FromSlice([]float32{
		1.5, -2, 0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1)), 1e-38, -1e-38,
		3, -3, 0.25, -0.25, 7, -7, 42, -42, 0.5,
	}, 18)
	want := New(18)
	wd, sd := want.Data(), src.Data()
	for i, v := range sd {
		if v > 0 {
			wd[i] = v
		} else {
			wd[i] = 0
		}
	}
	got := New(18)
	ReluInto(got, src)
	requireSameBits(t, "ReluInto", want, got)

	grad := FromSlice([]float32{
		1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, float32(math.NaN()), 16, 17, 18,
	}, 18)
	wantG := New(18)
	wg, gd := wantG.Data(), grad.Data()
	for i, r := range got.Data() {
		if r > 0 {
			wg[i] = gd[i]
		} else {
			wg[i] = 0
		}
	}
	gotG := New(18)
	ReluGradInto(gotG, grad, got)
	requireSameBits(t, "ReluGradInto", wantG, gotG)
}

func TestReluIntoLongRows(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for _, n := range []int{1, 7, 8, 9, 64, 100} {
		src := randTensor(rng, n)
		want := New(n)
		wd := want.Data()
		for i, v := range src.Data() {
			if v > 0 {
				wd[i] = v
			} else {
				wd[i] = 0
			}
		}
		got := New(n)
		ReluInto(got, src)
		requireSameBits(t, "ReluInto", want, got)
	}
}
