package qnn

import (
	"fmt"

	"dronerl/internal/fixed"
	"dronerl/internal/tensor"
)

// The PE datapath's scalar semantics, kept as the reference the engine is
// compared against: one sample at a time, one saturating fixed.MAC per tap
// (the 32-bit accumulator clamps at every step, where the engine's kernels
// wrap and saturate once at the narrow), padding taps skipped rather than
// materialized as zeros. These are the loops that were qnn.go's
// Layer.Forward bodies until Forward became the batch of one.

func serialConv(c *Conv2D, in QTensor) QTensor {
	h, w := in.Shape[1], in.Shape[2]
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	out := QTensor{Shape: []int{c.OutC, oh, ow}, Data: make(fixed.Vec, c.OutC*oh*ow), Fmt: c.OutFmt}
	colw := c.InC * c.K * c.K
	for oc := 0; oc < c.OutC; oc++ {
		wrow := c.W[oc*colw : (oc+1)*colw]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc fixed.Acc
				p := 0
				for ic := 0; ic < c.InC; ic++ {
					base := ic * h * w
					for ky := 0; ky < c.K; ky++ {
						iy := oy*c.Stride - c.Pad + ky
						for kx := 0; kx < c.K; kx++ {
							ix := ox*c.Stride - c.Pad + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								acc = fixed.MAC(acc, in.Data[base+iy*w+ix], wrow[p])
							}
							p++
						}
					}
				}
				word := narrowMixed(acc, c.InFmt, c.WFmt, c.OutFmt)
				word = fixed.SatAdd(word, rescale(c.B[oc], c.WFmt, c.OutFmt))
				out.Data[oc*oh*ow+oy*ow+ox] = word
			}
		}
	}
	return out
}

func serialDense(d *Dense, in QTensor) QTensor {
	out := QTensor{Shape: []int{d.Out}, Data: make(fixed.Vec, d.Out), Fmt: d.OutFmt}
	for j := 0; j < d.Out; j++ {
		acc := fixed.DotAcc(in.Data, d.W[j*d.In:(j+1)*d.In])
		word := narrowMixed(acc, d.InFmt, d.WFmt, d.OutFmt)
		out.Data[j] = fixed.SatAdd(word, rescale(d.B[j], d.WFmt, d.OutFmt))
	}
	return out
}

func serialReLU(in QTensor) QTensor {
	out := QTensor{Shape: in.Shape, Data: append(fixed.Vec(nil), in.Data...), Fmt: in.Fmt}
	fixed.ReLUVec(out.Data)
	return out
}

func serialPool(m *MaxPool, in QTensor) QTensor {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	oh := (h-m.K)/m.Stride + 1
	ow := (w-m.K)/m.Stride + 1
	out := QTensor{Shape: []int{c, oh, ow}, Data: make(fixed.Vec, c*oh*ow), Fmt: in.Fmt}
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := in.Data[base+oy*m.Stride*w+ox*m.Stride]
				for ky := 0; ky < m.K; ky++ {
					for kx := 0; kx < m.K; kx++ {
						best = fixed.Max2(best, in.Data[base+(oy*m.Stride+ky)*w+ox*m.Stride+kx])
					}
				}
				out.Data[ch*oh*ow+oy*ow+ox] = best
			}
		}
	}
	return out
}

// serialLayer runs one sample through l's scalar reference.
func serialLayer(l Layer, in QTensor) QTensor {
	switch l := l.(type) {
	case *Conv2D:
		return serialConv(l, in)
	case *Dense:
		return serialDense(l, in)
	case *ReLU:
		return serialReLU(in)
	case *MaxPool:
		return serialPool(l, in)
	case *Flatten:
		return QTensor{Shape: []int{in.Len()}, Data: in.Data, Fmt: in.Fmt}
	}
	panic(fmt.Sprintf("qnn: no scalar reference for %T", l))
}

// serialForward is the whole scalar pipeline: quantize a float image, run
// every layer's reference, return the Q-value words.
func serialForward(n *Network, img *tensor.Tensor) fixed.Vec {
	q := QTensor{Shape: img.Shape(), Data: make(fixed.Vec, img.Len()), Fmt: n.InFmt}
	for i, v := range img.Data() {
		q.Data[i] = n.InFmt.FromFloat(float64(v))
	}
	for _, l := range n.Layers {
		q = serialLayer(l, q)
	}
	return q.Data
}

// narrowMixed converts an accumulator whose operands had inFmt and wFmt
// fractional bits into outFmt with rounding and saturation: the PE's narrow,
// one word at a time, that the engine's tensor.Narrow16 runs as its first step.
func narrowMixed(acc fixed.Acc, inFmt, wFmt, outFmt fixed.Format) fixed.Word {
	shift := int(inFmt.Frac+wFmt.Frac) - int(outFmt.Frac)
	v := int64(acc)
	switch {
	case shift > 0:
		half := int64(1) << uint(shift) >> 1
		v = (v + half) >> uint(shift)
	case shift < 0:
		v <<= uint(-shift)
	}
	if v > 32767 {
		v = 32767
	}
	if v < -32768 {
		v = -32768
	}
	return fixed.Word(v)
}
