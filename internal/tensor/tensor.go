// Package tensor provides the dense float32 tensors used by the software
// reference implementation of the paper's CNN. The hardware path quantizes
// these tensors to 16-bit fixed point (see internal/fixed); keeping the
// reference in float32 lets the RL experiments train quickly while the
// quantization error is characterized separately in internal/nn tests.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor with an explicit shape.
// The zero value is an empty tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New allocates a zero-filled tensor with the given shape. All dimensions
// must be positive.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data with the given shape. The length of data must equal
// the product of the dimensions; the slice is used directly, not copied.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the same storage with a new shape of equal
// length.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Scale multiplies every element by s in place. scaleAVX takes whole
// 8-wide blocks: one VMULPS per element, the loop's one rounding.
func (t *Tensor) Scale(s float32) {
	d := t.data
	if n := len(d) &^ 7; useFloatAVX && n > 0 {
		scaleAVX(&d[0], n, s)
		d = d[n:]
	}
	for i := range d {
		d[i] *= s
	}
}

// AddScaled accumulates s*src into t elementwise. Shapes must match in
// length. It is the saxpy primitive itself (one multiply rounding, one add
// rounding per element), so the SIMD kernel is bit-identical to the plain
// loop.
func (t *Tensor) AddScaled(src *Tensor, s float32) {
	if len(src.data) != len(t.data) {
		panic("tensor: AddScaled length mismatch")
	}
	saxpyRow(t.data, src.data, s)
}

// Add accumulates src into t elementwise.
func (t *Tensor) Add(src *Tensor) { t.AddScaled(src, 1) }

// Dot returns the flat dot product of two tensors of equal length.
func (t *Tensor) Dot(o *Tensor) float64 {
	if len(o.data) != len(t.data) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range t.data {
		s += float64(float64(v) * float64(o.data[i])) // rounded, so never fused
	}
	return s
}

// SumAbs returns the L1 norm of the tensor.
func (t *Tensor) SumAbs() float64 {
	var s float64
	for _, v := range t.data {
		s += math.Abs(float64(v))
	}
	return s
}

// MaxAbs returns the L-infinity norm of the tensor. NaN elements are
// ignored, ±Inf counts, and -0 reads as 0. maxAbsAVX takes whole 8-wide
// blocks: abs and max are exact, and max is order-free on non-NaN values,
// so its float32 max widened is the loop's float64 max.
func (t *Tensor) MaxAbs() float64 {
	d := t.data
	var m float64
	if n := len(d) &^ 7; useFloatAVX && n > 0 {
		m = float64(maxAbsAVX(&d[0], n))
		d = d[n:]
	}
	for _, v := range d {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// RandN fills the tensor with Gaussian noise of the given standard
// deviation using rng, the initialization used for fresh layers.
func (t *Tensor) RandN(rng *rand.Rand, stddev float64) {
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64() * stddev)
	}
}

// RandUniform fills the tensor with uniform noise in [-limit, limit].
func (t *Tensor) RandUniform(rng *rand.Rand, limit float64) {
	for i := range t.data {
		t.data[i] = float32((float64(rng.Float64())*2 - 1) * limit) // rounded draw: never fused
	}
}

// Equal reports whether two tensors have identical shape and elements.
func (t *Tensor) Equal(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	for i := range t.data {
		if t.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// ArgMax returns the flat index of the maximum element. Ties resolve to the
// lowest index; it panics on an empty tensor.
func (t *Tensor) ArgMax() int {
	if len(t.data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best := 0
	for i, v := range t.data {
		if v > t.data[best] {
			best = i
		}
	}
	return best
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.shape)
}
