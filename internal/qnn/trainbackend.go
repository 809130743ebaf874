package qnn

import (
	"fmt"
	"slices"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// TrainBackend is the nn.TrainableBackend over the fixed-point training
// engine: the online and bootstrap-target networks both live as integer
// words, and every TD step is executed in the accelerator's arithmetic —
// quantized forward passes for the bootstrap and the online Q-values,
// integer backprop, and a stochastically-rounded weight update. It computes
// words only: internal/hw's "quant-train" backend prices every pass.
type TrainBackend struct {
	online *Network
	target *Network
	// float is the agent's float network, kept mirrored via WriteBack so
	// snapshots/publishes/eval backends see the integer engine's weights.
	float *nn.Network

	steps int64
	// gradClip mirrors the float path's default L-infinity clip.
	gradClip float64

	// stack is the [state rows; live next rows] input of one TD step (frame
	// or boundary-feature words) and grad its stacked output-gradient words.
	stack []int16
	grad  []int16
}

// NewTrainBackend compiles a float network into the fixed-point training
// engine with the given options. The network's current SetConfig topology
// decides the training boundary (frozen prefix).
func NewTrainBackend(src *nn.Network, opts TrainOptions) (*TrainBackend, error) {
	online, err := CompileTrainable(src, opts)
	if err != nil {
		return nil, err
	}
	return &TrainBackend{
		online:   online,
		target:   online.Clone(),
		float:    src,
		gradClip: 1,
	}, nil
}

// Name implements nn.Backend.
func (b *TrainBackend) Name() string { return "quant-train" }

func obsShape(obs *tensor.Tensor) [3]int {
	sh := obs.Shape()
	if len(sh) != 3 {
		panic(fmt.Sprintf("qnn: expects CHW observations, got %v", sh))
	}
	return [3]int{sh[0], sh[1], sh[2]}
}

// Infer implements nn.Backend: one quantized forward pass through the
// online network. The returned slice is reused by the next call.
func (b *TrainBackend) Infer(obs *tensor.Tensor) []float32 {
	return b.online.Forward(obs.Data(), obsShape(obs))
}

// featDim is the width of one boundary-feature row: the fan-in of the first
// trainable layer, or 0 when nothing is frozen below it.
func (b *TrainBackend) featDim() int {
	if on := b.online; on.trainFrom > 0 {
		if d, ok := on.layers[on.trainFrom].(*tDense); ok {
			return d.in
		}
	}
	return 0
}

// BoundaryFeatures implements nn.BoundaryFeaturizer: the Q7.8 (ActFmt) words
// one CHW observation leaves at the training boundary, from a batch of one —
// by row independence (train.go) the row any stack holding the frame would
// produce. It allocates once per frame: the private copy the caller keeps.
// Nil when nothing is frozen.
func (b *TrainBackend) BoundaryFeatures(obs *tensor.Tensor) []int16 {
	if b.featDim() == 0 {
		return nil
	}
	on := b.online
	qin := grow(&on.qin, obs.Len())
	on.quantize(qin, obs.Data())
	feat, _ := on.forwardLayers(0, on.trainFrom, qin, 1, obsShape(obs))
	return slices.Clone(feat)
}

// GreedyFrom implements nn.BoundaryFeaturizer: the online tail over one row
// of boundary words, argmax over the output words with ties to the lowest
// index. Dequantization is monotone, so this is Infer's argmax over the
// frame the row came from. Like BoundaryFeatures it allocates nothing.
func (b *TrainBackend) GreedyFrom(feat []int16) int {
	if b.featDim() == 0 {
		panic("qnn: GreedyFrom on a backend that freezes no prefix")
	}
	on := b.online
	q, _ := on.forwardLayers(on.trainFrom, len(on.layers), feat, 1, [3]int{len(feat), 1, 1})
	return slices.Index(q, slices.Max(q))
}

// checkBatch validates every field of a TD minibatch before Train touches
// any state, so a malformed batch leaves the gradient scratchpads and the
// rounding stream exactly as they were. It returns the shape
// of one stacked row: the CHW frame, or (F, 1, 1) for boundary features.
func (b *TrainBackend) checkBatch(batch nn.TrainBatch) [3]int {
	n := len(batch.Actions)
	var shape [3]int
	if batch.Feats != nil {
		f := b.featDim()
		if f == 0 {
			panic("qnn: TrainBatch Feats offered to a backend that freezes no prefix")
		}
		if len(batch.Feats) != n*f {
			panic(fmt.Sprintf("qnn: TrainBatch Feats has %d words, want %d rows of the first trainable layer's %d inputs", len(batch.Feats), n, f))
		}
		if len(batch.NextFeats) != n*f {
			panic(fmt.Sprintf("qnn: TrainBatch NextFeats has %d words for Feats' %d", len(batch.NextFeats), n*f))
		}
		shape = [3]int{f, 1, 1}
	} else {
		if batch.States == nil || batch.States.Rank() != 4 {
			panic(fmt.Sprintf("qnn: TrainBatch States must be NCHW (or Feats set), got %v", shapeOf(batch.States)))
		}
		sh := batch.States.Shape()
		if sh[0] != n {
			panic(fmt.Sprintf("qnn: TrainBatch States stacks %d rows for %d Actions", sh[0], n))
		}
		if nsh := shapeOf(batch.Nexts); !slices.Equal(nsh, sh) {
			panic(fmt.Sprintf("qnn: TrainBatch Nexts shape %v differs from States %v", nsh, sh))
		}
		shape = [3]int{sh[1], sh[2], sh[3]}
	}
	if len(batch.Rewards) != n {
		panic(fmt.Sprintf("qnn: TrainBatch Rewards has %d entries for %d Actions", len(batch.Rewards), n))
	}
	if len(batch.Done) != n {
		panic(fmt.Sprintf("qnn: TrainBatch Done has %d entries for %d Actions", len(batch.Done), n))
	}
	actions := b.online.OutDim()
	for s, a := range batch.Actions {
		if a < 0 || a >= actions {
			panic(fmt.Sprintf("qnn: TrainBatch Actions[%d] = %d outside the %d-action output", s, a, actions))
		}
	}
	return shape
}

func shapeOf(t *tensor.Tensor) []int {
	if t == nil {
		return nil
	}
	return t.Shape()
}

// Train implements nn.TrainableBackend: one minibatch TD(0) update with one
// batched kernel per layer. The states and the live (non-terminal) nexts
// form a single stack at the training boundary — copied from Feats/NextFeats
// when the batch carries them, else quantized from States/Nexts and run
// through the frozen prefix *once*: the online and target prefixes are the
// same words (Network.Clone). Then the target tail bootstraps from the
// next-rows, the online tail scores the state-rows, the TD errors are rounded
// into gradient words in sample order, and one batched backward and one
// stochastically-rounded Update finish the step. Returns the batch-mean
// squared TD error.
func (b *TrainBackend) Train(batch nn.TrainBatch) float64 {
	n := len(batch.Actions)
	if n == 0 {
		return 0
	}
	shape := b.checkBatch(batch)
	rowLen := shape[0] * shape[1] * shape[2]
	live := 0
	for _, done := range batch.Done {
		if !done {
			live++
		}
	}
	on := b.online
	cached := batch.Feats != nil
	stack := grow(&b.stack, (n+live)*rowLen)
	if cached {
		copy(stack, batch.Feats)
	} else {
		on.quantize(stack[:n*rowLen], batch.States.Data())
	}
	for s, row := 0, n; s < n; s++ {
		if batch.Done[s] {
			continue
		}
		dst := stack[row*rowLen : (row+1)*rowLen]
		if cached {
			copy(dst, batch.NextFeats[s*rowLen:(s+1)*rowLen])
		} else {
			on.quantize(dst, batch.Nexts.Data()[s*rowLen:(s+1)*rowLen])
		}
		row++
	}

	last := len(on.layers)
	feat, fshape := stack, shape
	if !cached {
		feat, fshape = on.forwardLayers(0, on.trainFrom, stack, n+live, shape)
	}
	flen := len(feat) / (n + live)
	var qn []int16
	if live > 0 {
		qn, _ = b.target.forwardLayers(on.trainFrom, last, feat[n*flen:], live, fshape)
	}
	q, _ := on.forwardLayers(on.trainFrom, last, feat[:n*flen], n, fshape)

	actions := len(q) / n
	grad := grow(&b.grad, n*actions)
	clear(grad)
	var mse float64
	for s, row := 0, 0; s < n; s++ {
		target := batch.Rewards[s]
		if !batch.Done[s] {
			// Dequantization is monotone: the best word is the best Q-value.
			best := slices.Max(qn[row*actions : (row+1)*actions])
			row++
			// The explicit conversions keep a fusing compiler (arm64) from
			// contracting these into FMAs: the step must round the same
			// way on every architecture.
			target += float64(batch.Gamma * float64(on.dequantize(best)))
		}
		a := batch.Actions[s]
		td := float64(on.dequantize(q[s*actions+a])) - target
		mse += float64(td * td)
		grad[s*actions+a] = on.quantizeGrad(float32(td))
	}
	on.backward(grad)
	on.Update(batch.LR, n, b.gradClip)
	b.steps++
	if err := on.WriteBack(b.float); err != nil {
		panic("qnn: TrainBackend write-back failed: " + err.Error())
	}
	return mse / float64(n)
}

// SyncTarget implements nn.TrainableBackend: the online weight words are
// copied into the target store. Only the trainable words move: the frozen
// ones are shared.
func (b *TrainBackend) SyncTarget() {
	b.target.CopyWeightsFrom(b.online)
}

// Steps returns the number of completed Train calls (weight updates).
func (b *TrainBackend) Steps() int64 { return b.steps }

// Online exposes the integer training network (tests and reports).
func (b *TrainBackend) Online() *Network { return b.online }
