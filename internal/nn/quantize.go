package nn

import (
	"dronerl/internal/fixed"
	"dronerl/internal/tensor"
)

// The accelerator computes in 16-bit fixed point (Fig. 4(b)). The software
// reference trains in float32; this file provides the quantized inference
// path used to characterize the numeric gap between the two.

// QuantizeParams rounds every weight of the network to the given fixed-point
// format in place, as happens when the trained model is downloaded into the
// STT-MRAM / SRAM hierarchy before deployment.
func QuantizeParams(n *Network, f fixed.Format) {
	for _, p := range n.Params() {
		d := p.W.Data()
		for i, v := range d {
			d[i] = float32(f.Quantize(float64(v)))
		}
		p.MarkChanged()
	}
}

// QuantizedForward runs one sample through the network as a batch of one,
// additionally rounding the input and every layer's activations to format f,
// emulating the 16-bit datapath between PE array and global buffer. Weights
// are used as stored; quantize them first with QuantizeParams for a full
// fixed-point emulation. The result is a private copy; x is not written.
func QuantizedForward(n *Network, f fixed.Format, x *tensor.Tensor) *tensor.Tensor {
	x = batchOfOne(x.Clone())
	quantizeTensor(x, f)
	for _, l := range n.Layers {
		x = l.ForwardBatch(x)
		quantizeTensor(x, f)
	}
	return sampleCopy(x)
}

func quantizeTensor(t *tensor.Tensor, f fixed.Format) {
	d := t.Data()
	for i, v := range d {
		d[i] = float32(f.Quantize(float64(v)))
	}
}
