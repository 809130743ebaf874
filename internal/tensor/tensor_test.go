package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Len() != 24 {
		t.Fatalf("rank=%d len=%d", x.Rank(), x.Len())
	}
	if x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("dims wrong: %v", x.Shape())
	}
}

func TestNewRejectsBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero dimension")
		}
	}()
	New(2, 0)
}

func TestAtSetRowMajor(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.At(1, 2) != 7 {
		t.Error("At/Set mismatch")
	}
	if x.Data()[1*3+2] != 7 {
		t.Error("row-major layout violated")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	x.At(2, 0)
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong data length")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := New(4)
	x.Fill(1)
	y := x.Clone()
	y.Set(9, 0)
	if x.At(0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(5, 0, 1)
	if x.Data()[1] != 5 {
		t.Error("Reshape must share storage")
	}
}

func TestReshapeRejectsWrongLen(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	x.Reshape(7)
}

func TestScaleAddScaled(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := FromSlice([]float32{10, 20}, 2)
	x.Scale(2)
	x.AddScaled(y, 0.5)
	if x.At(0) != 7 || x.At(1) != 14 {
		t.Errorf("got %v", x.Data())
	}
}

func TestDotAndNorms(t *testing.T) {
	x := FromSlice([]float32{3, -4}, 2)
	if x.Dot(x) != 25 {
		t.Errorf("Dot = %v", x.Dot(x))
	}
	if x.SumAbs() != 7 {
		t.Errorf("SumAbs = %v", x.SumAbs())
	}
	if x.MaxAbs() != 4 {
		t.Errorf("MaxAbs = %v", x.MaxAbs())
	}
}

func TestArgMax(t *testing.T) {
	x := FromSlice([]float32{1, 5, 5, 2}, 4)
	if x.ArgMax() != 1 {
		t.Errorf("ArgMax = %d, want first max index 1", x.ArgMax())
	}
}

func TestRandNDeterministic(t *testing.T) {
	a := New(16)
	b := New(16)
	a.RandN(rand.New(rand.NewSource(1)), 0.1)
	b.RandN(rand.New(rand.NewSource(1)), 0.1)
	if !a.Equal(b) {
		t.Error("same seed must give same init")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := product(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("product[%d] = %v, want %v", i, c.Data()[i], w)
		}
	}
}

func TestMatMulDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MatMulAccum(New(2, 3), New(2, 3), New(2, 3))
}

func TestMatVecAndTransposedConsistency(t *testing.T) {
	// For any A, v, u: u^T (A v) == (A^T u)^T v. Verifies the transposed
	// product (A^T x u as an m x 1 MatMulTNAccum) is the true adjoint of the
	// matrix-vector product (A x v as an m x 1 MatMulAccum), the invariant behind
	// the systolic transposed-matrix dataflow of paper Fig. 8.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		a := New(m, k)
		a.RandN(rng, 1)
		v := make([]float32, k)
		u := make([]float32, m)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		for i := range u {
			u[i] = float32(rng.NormFloat64())
		}
		av := product(a, FromSlice(v, k, 1)).Data()
		atuT := New(k, 1)
		MatMulTNAccum(atuT, a, FromSlice(u, m, 1))
		atu := atuT.Data()
		var lhs, rhs float64
		for i := range u {
			lhs += float64(u[i]) * float64(av[i])
		}
		for i := range v {
			rhs += float64(atu[i]) * float64(v[i])
		}
		if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
		}
	}
}

// Im2Col is one CHW sample's patch-major im2col matrix, (oh*ow, c*kh*kw).
func Im2Col(in *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	out := New(ConvOutDim(h, kh, stride, pad)*ConvOutDim(w, kw, stride, pad), c*kh*kw)
	im2colSample(out.data, in.data, c, h, w, kh, kw, stride, pad)
	return out
}

// Col2Im scatters one sample's patch-major im2col gradient back into a CHW
// input gradient: the adjoint of Im2Col.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	ow := ConvOutDim(w, kw, stride, pad)
	out := New(c, h, w)
	for p := 0; p < cols.Dim(0); p++ {
		for q, v := range cols.data[p*cols.Dim(1) : (p+1)*cols.Dim(1)] {
			ch, ky, kx := q/(kh*kw), q/kw%kh, q%kw
			iy, ix := p/ow*stride-pad+ky, p%ow*stride-pad+kx
			if iy >= 0 && iy < h && ix >= 0 && ix < w {
				out.data[(ch*h+iy)*w+ix] += v
			}
		}
	}
	return out
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is just a reshape.
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	cols := Im2Col(in, 1, 1, 1, 0)
	if cols.Dim(0) != 4 || cols.Dim(1) != 1 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	for i, w := range []float32{1, 2, 3, 4} {
		if cols.Data()[i] != w {
			t.Fatalf("cols[%d] = %v", i, cols.Data()[i])
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	cols := Im2Col(in, 3, 3, 1, 1)
	// Output 2x2 positions, each patch 9 long. Center of patch (0,0) is
	// input(0,0)=1 and its bottom-right 2x2 block is the input.
	if cols.Dim(0) != 4 || cols.Dim(1) != 9 {
		t.Fatalf("cols shape %v", cols.Shape())
	}
	patch := cols.Data()[:9]
	want := []float32{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, w := range want {
		if patch[i] != w {
			t.Fatalf("patch[%d] = %v, want %v", i, patch[i], w)
		}
	}
}

func TestCol2ImAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), g> == <x, Col2Im(g)> for random x, g.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		c, h, w := 1+rng.Intn(3), 4+rng.Intn(4), 4+rng.Intn(4)
		kh, kw := 1+rng.Intn(3), 1+rng.Intn(3)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		x := New(c, h, w)
		x.RandN(rng, 1)
		cols := Im2Col(x, kh, kw, stride, pad)
		g := New(cols.Dim(0), cols.Dim(1))
		g.RandN(rng, 1)
		lhs := cols.Dot(g)
		back := Col2Im(g, c, h, w, kh, kw, stride, pad)
		rhs := x.Dot(back)
		if math.Abs(lhs-rhs) > 1e-2*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
		}
	}
}

func TestConvOutDim(t *testing.T) {
	// Paper CONV1: 227 input, kernel 11, stride 4, no pad -> 55.
	if got := ConvOutDim(227, 11, 4, 0); got != 55 {
		t.Errorf("CONV1 out dim = %d, want 55", got)
	}
	// CONV2: 27 input, kernel 5, stride 1, pad 2 -> 27.
	if got := ConvOutDim(27, 5, 1, 2); got != 27 {
		t.Errorf("CONV2 out dim = %d, want 27", got)
	}
}

func TestEqualProperty(t *testing.T) {
	err := quick.Check(func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		a := FromSlice(append([]float32(nil), vals...), len(vals))
		b := FromSlice(append([]float32(nil), vals...), len(vals))
		return a.Equal(b)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
