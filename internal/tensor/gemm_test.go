package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// Reference kernels: textbook loops with single-accumulator ascending-index
// reductions. The blocked/parallel kernels promise bit-identical results, so
// every comparison below is exact equality, not tolerance-based.

func refMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a.At(i, p) * b.At(p, j))
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func refMatMulNT(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += float32(a.At(i, p) * b.At(j, p))
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func refMatMulTN(a, b *Tensor) *Tensor {
	r, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for t := 0; t < r; t++ {
				s += float32(a.At(t, i) * b.At(t, j))
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.RandN(rng, 1)
	// Sprinkle exact zeros so the zero-skip paths are exercised.
	d := t.Data()
	for i := 0; i < len(d); i += 7 {
		d[i] = 0
	}
	return t
}

// withGOMAXPROCS runs fn under an inflated GOMAXPROCS so parallelRows takes
// its goroutine fan-out branch even on single-CPU CI runners.
func withGOMAXPROCS(t *testing.T, n int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// Shapes chosen to cover the register-block remainders: dimensions that are
// and are not multiples of 4 and of the j-tile, plus a reduction longer than
// gemmBlockK so the k-paneling wraps.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{4, 8, 4},
	{5, 3, 7},
	{13, 300, 9},
	{32, 257, 33},
}

func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range gemmShapes {
		a, b := randTensor(rng, s.m, s.k), randTensor(rng, s.k, s.n)
		if got, want := MatMul(a, b), refMatMul(a, b); !got.Equal(want) {
			t.Errorf("MatMul %dx%dx%d diverges from reference", s.m, s.k, s.n)
		}
	}
}

func TestMatMulAccumAddsOnTop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b := randTensor(rng, 6, 20), randTensor(rng, 20, 5)
	dst := refMatMul(a, b)
	// The accumulate kernels add each product directly onto the destination
	// element (ascending p), so the reference must do the same — summing a
	// dot product first would round differently.
	want := dst.Clone()
	for i := 0; i < 6; i++ {
		for p := 0; p < 20; p++ {
			for j := 0; j < 5; j++ {
				want.Set(want.At(i, j)+float32(a.At(i, p)*b.At(p, j)), i, j)
			}
		}
	}
	MatMulAccum(dst, a, b)
	if !dst.Equal(want) {
		t.Error("MatMulAccum does not accumulate onto existing contents")
	}
}

func TestMatMulNTIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, s := range gemmShapes {
		a, b := randTensor(rng, s.m, s.k), randTensor(rng, s.n, s.k)
		got := New(s.m, s.n)
		MatMulNTInto(got, a, b)
		if want := refMatMulNT(a, b); !got.Equal(want) {
			t.Errorf("MatMulNTInto %dx%dx%d diverges from reference", s.m, s.k, s.n)
		}
	}
}

func TestMatMulTNAccumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, s := range gemmShapes {
		// Here s.m plays the reduction (shared leading) dimension.
		a, b := randTensor(rng, s.m, s.k), randTensor(rng, s.m, s.n)
		got := New(s.k, s.n)
		MatMulTNAccum(got, a, b)
		if want := refMatMulTN(a, b); !got.Equal(want) {
			t.Errorf("MatMulTNAccum r=%d %dx%d diverges from reference", s.m, s.k, s.n)
		}
	}
}

func TestParallelKernelsBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	// Large enough that m*k*n clears parallelFlops and the row chunks split.
	a := randTensor(rng, 64, 96)
	b := randTensor(rng, 96, 64)
	bt := randTensor(rng, 64, 96)
	serialMM := MatMul(a, b)
	serialNT := New(64, 64)
	MatMulNTInto(serialNT, a, bt)
	at := randTensor(rng, 96, 64)
	serialTN := New(64, 64)
	MatMulTNAccum(serialTN, at, b)
	withGOMAXPROCS(t, 8, func() {
		if got := MatMul(a, b); !got.Equal(serialMM) {
			t.Error("parallel MatMul diverges from serial")
		}
		got := New(64, 64)
		MatMulNTInto(got, a, bt)
		if !got.Equal(serialNT) {
			t.Error("parallel MatMulNTInto diverges from serial")
		}
		got = New(64, 64)
		MatMulTNAccum(got, at, b)
		if !got.Equal(serialTN) {
			t.Error("parallel MatMulTNAccum diverges from serial")
		}
	})
}
