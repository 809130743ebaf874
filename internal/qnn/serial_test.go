package qnn

import (
	"fmt"

	"dronerl/internal/fixed"
	"dronerl/internal/tensor"
)

// The engine's scalar reference: one sample at a time, each weighted output
// word one int64 sum with the bias joined at the product scale and one
// saturation (refConv and refDense, train_test.go), padding taps skipped
// rather than read as zero words, and a folded ReLU's clamp applied where the
// walk applies it; ReLU and pooling are comparator loops. The walk is held to
// it word for word on real frames.

// serialLayer runs one sample through l's scalar reference.
func serialLayer(l Layer, in QTensor) QTensor {
	x := make([]int16, len(in.Data))
	for i, w := range in.Data {
		x[i] = int16(w)
	}
	var y []int16
	var shape []int
	switch l := l.(*stage).tLayer.(type) {
	case *tConv:
		h, w := in.Shape[1], in.Shape[2]
		y, _ = refConv{l}.forward(x, h, w)
		shape = []int{l.outC, (h+2*l.pad-l.k)/l.stride + 1, (w+2*l.pad-l.k)/l.stride + 1}
		clampAt(y, floor(l.relu))
	case *tDense:
		y, _ = refDense{l}.forward(x)
		shape = []int{l.out}
		clampAt(y, floor(l.relu))
	case *tReLU:
		y, shape = clampAt(x, 0), in.Shape
	case *tPool:
		y, shape = serialPool(l, x, in.Shape)
	case *tFlatten:
		y, shape = x, []int{len(x)}
	default:
		panic(fmt.Sprintf("qnn: no scalar reference for %T", l))
	}
	out := QTensor{Shape: shape, Data: make(fixed.Vec, len(y)), Fmt: in.Fmt}
	for i, w := range y {
		out.Data[i] = fixed.Word(w)
	}
	return out
}

// clampAt raises every word of ws below lo to lo, in place.
func clampAt(ws []int16, lo int16) []int16 {
	for i, w := range ws {
		ws[i] = max(w, lo)
	}
	return ws
}

func serialPool(m *tPool, in []int16, sh []int) ([]int16, []int) {
	c, h, w := sh[0], sh[1], sh[2]
	oh := (h-m.k)/m.stride + 1
	ow := (w-m.k)/m.stride + 1
	out := make([]int16, c*oh*ow)
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := in[base+oy*m.stride*w+ox*m.stride]
				for ky := 0; ky < m.k; ky++ {
					for kx := 0; kx < m.k; kx++ {
						best = max(best, in[base+(oy*m.stride+ky)*w+ox*m.stride+kx])
					}
				}
				out[ch*oh*ow+oy*ow+ox] = best
			}
		}
	}
	return out, []int{c, oh, ow}
}

// frameOf quantizes a float CHW image into n's input format.
func frameOf(n *Network, img *tensor.Tensor) QTensor {
	q := QTensor{Shape: img.Shape(), Data: make(fixed.Vec, img.Len()), Fmt: n.InFmt}
	for i, v := range img.Data() {
		q.Data[i] = n.InFmt.FromFloat(float64(v))
	}
	return q
}

// serialForward is the whole scalar pipeline: quantize a float image, run
// every layer's reference, return the Q-values the output words decode to.
func serialForward(n *Network, img *tensor.Tensor) []float32 {
	q := frameOf(n, img)
	for _, l := range n.Layers {
		q = serialLayer(l, q)
	}
	out := make([]float32, len(q.Data))
	for i, w := range q.Data {
		out[i] = float32(q.Fmt.ToFloat(w))
	}
	return out
}
