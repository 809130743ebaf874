// Package qnn is the int16 engine: a trained float network executed in the
// accelerator's 16-bit fixed-point arithmetic (internal/fixed) with 32-bit
// accumulators, rather than a float emulation of it — served by Backend (the
// quant and systolic backends, the serving daemon) and trained by
// TrainBackend (quant-train) on one datapath, as the paper's PE array runs
// both (Section V.B, Fig. 3(b)).
//
// A float network is compiled once, its weights quantized into 16-bit words:
// the artifact that would be downloaded into the STT-MRAM stack, which the
// paper stores as "16 bit fixed point" weights (Fig. 4(b)) and reads for
// every inference. There is one layer walk and one epilogue (train.go):
// CompileTrainable keeps the float network's training boundary, and Compile
// puts it after the last layer, so inference is the training forward with
// nothing to train. A policy trained in integer and published to the daemon
// is answered in the words it trained on (TestServeAnswersWhatTheDroneTrainsOn).
package qnn

import (
	"fmt"

	"dronerl/internal/fixed"
	"dronerl/internal/nn"
)

// Options configures Compile. It is TrainOptions: inference reads only the
// weight and activation formats.
type Options = TrainOptions

// Compile converts a trained float network into the int16 engine with
// nothing trainable: CompileTrainable with the training boundary after the
// last layer, so every conv is packed once for the direct convolution and no
// layer carries a gradient scratchpad.
func Compile(src *nn.Network, opts Options) (*Network, error) {
	return compile(src, opts, len(src.Layers))
}

// QTensor is an integer tensor with an associated fixed-point format.
type QTensor struct {
	Shape []int
	Data  fixed.Vec
	Fmt   fixed.Format
}

// Layer is one stage of a compiled Network's walk.
type Layer interface {
	// Name identifies the stage.
	Name() string
	// Forward runs one unbatched sample (CHW, or a flat vector) through the
	// stage's kernel as a batch of one and returns a freshly allocated
	// output. The stage runs as it does in the walk: a weighted layer that
	// folds the ReLU after it clamps at zero, and that ReLU passes its input
	// through.
	Forward(in QTensor) QTensor
}

// stage is the Layer view of one step of the walk, with its own workspace:
// Forward reuses it, so it times the kernel rather than the allocator, and
// copies out only the result. Like the Network, it is not safe for
// concurrent use, nor between the walk's forward and backward passes.
type stage struct {
	tLayer
	fmt fixed.Format
	ws  batchWorkspace
	x   []int16
}

func (s *stage) Name() string { return s.name() }

func (s *stage) Forward(in QTensor) QTensor {
	if len(in.Shape) == 0 || len(in.Shape) > 3 {
		panic(fmt.Sprintf("qnn: %s expects a CHW sample or a vector, got shape %v", s.name(), in.Shape))
	}
	shape := [3]int{1, 1, 1}
	copy(shape[:], in.Shape)
	x := grow(&s.x, len(in.Data))
	for i, w := range in.Data {
		x[i] = int16(w)
	}
	y, osh := s.forwardBatch(x, 1, shape, &s.ws, 0)
	out := QTensor{Shape: osh[:], Data: make(fixed.Vec, len(y)), Fmt: s.fmt}
	if osh[1] == 1 && osh[2] == 1 {
		out.Shape = osh[:1]
	}
	for i, w := range y {
		out.Data[i] = fixed.Word(w)
	}
	return out
}
