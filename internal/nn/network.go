package nn

import (
	"fmt"
	"math/rand"
	"strings"

	"dronerl/internal/tensor"
)

// Config selects how much of the network is trained online, matching the
// four topologies evaluated in the paper (Fig. 3(b) and Section VI.B):
// E2E trains every layer; L2/L3/L4 train only the last 2/3/4 FC layers on
// top of a transferred model.
type Config int

// The four training topologies of the paper.
const (
	// E2E backpropagates through the whole network.
	E2E Config = iota
	// L2 trains the last 2 FC layers ("4% of total weights").
	L2
	// L3 trains the last 3 FC layers ("11% of total weights").
	L3
	// L4 trains the last 4 FC layers ("26% of total weights").
	L4
)

// Configs lists all four topologies in the order the paper plots them.
var Configs = []Config{L2, L3, L4, E2E}

// String returns the paper's name for the configuration.
func (c Config) String() string {
	switch c {
	case E2E:
		return "E2E"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case L4:
		return "L4"
	}
	return fmt.Sprintf("Config(%d)", int(c))
}

// ParseConfig is the case-insensitive inverse of String over Configs: "l3"
// and "L3" both name L3. Any other name is an error listing the four.
func ParseConfig(name string) (Config, error) {
	for _, c := range Configs {
		if strings.EqualFold(name, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("nn: unknown config %q (want one of %v)", name, Configs)
}

// TrainedFCLayers returns how many trailing FC layers the configuration
// trains online; it returns -1 for E2E, which trains everything.
func (c Config) TrainedFCLayers() int {
	switch c {
	case L2:
		return 2
	case L3:
		return 3
	case L4:
		return 4
	default:
		return -1
	}
}

// Network is an ordered stack of layers trained with gradient accumulation.
type Network struct {
	Layers []Layer
	// trainFrom is the index of the first layer whose parameters receive
	// gradients; layers below it are frozen and backpropagation stops
	// there (the paper's TL configurations).
	trainFrom int

	// Cached parameter slices: built lazily and reused so the per-step
	// bookkeeping (ClipGrad, Step, target sync) allocates nothing. The
	// layer stack must not change after the first Params call; SetConfig
	// invalidates the trainable cache.
	params    []*Param
	trainable []*Param
}

// NewNetwork builds a network over the given layers, trainable end-to-end by
// default.
func NewNetwork(layers ...Layer) *Network {
	return &Network{Layers: layers}
}

// Init initializes every layer's parameters from rng.
func (n *Network) Init(rng *rand.Rand) {
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Conv2D:
			t.Init(rng)
		case *Dense:
			t.Init(rng)
		}
	}
}

// Forward runs one CHW sample through the network as a batch of one and
// returns a privately owned copy of the output, the leading 1 dropped.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	return n.ForwardRange(0, len(n.Layers), x)
}

// ForwardBatch runs B stacked samples (leading batch dimension) through the
// network with one GEMM per layer. The returned (B, out) tensor is a
// workspace owned by the final layer — copy anything that must survive the
// next pass. Row s is bit-identical to sample s run alone.
func (n *Network) ForwardBatch(x *tensor.Tensor) *tensor.Tensor {
	return n.ForwardBatchRange(0, len(n.Layers), x)
}

// ForwardRange runs one sample through the layers [from, to) only, as a batch
// of one, and returns a privately owned copy of the result with the leading 1
// dropped. Splitting a Forward call into ForwardRange(0, b, x) followed by
// ForwardRange(b, L, ·) executes exactly the same layer sequence, so the
// composition is bit-identical to the unsplit pass. The actor/learner
// pipeline uses the split to cache the frozen prefix's boundary activation —
// the activation entering the first trainable layer — in replay
// (Transition.Feat, hence the copy) and re-run only the trainable tail.
func (n *Network) ForwardRange(from, to int, x *tensor.Tensor) *tensor.Tensor {
	return sampleCopy(n.ForwardBatchRange(from, to, batchOfOne(x)))
}

// batchOfOne views one sample as a batch of one (same storage).
func batchOfOne(x *tensor.Tensor) *tensor.Tensor {
	shape := append(make([]int, 0, 1+x.Rank()), 1)
	return x.Reshape(append(shape, x.Shape()...)...)
}

// sampleCopy returns a privately owned copy of a batch-of-one result with the
// leading 1 dropped.
func sampleCopy(out *tensor.Tensor) *tensor.Tensor {
	return tensor.FromSlice(append([]float32(nil), out.Data()...), out.Shape()[1:]...)
}

// ForwardBatchRange runs B stacked samples through layers [from, to) with one
// GEMM per layer. Like ForwardBatch, the returned tensor is a layer-owned
// workspace.
func (n *Network) ForwardBatchRange(from, to int, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.Layers[from:to] {
		x = l.ForwardBatch(x)
	}
	return x
}

// BackwardBatch accumulates parameter gradients for the layers at or above
// the training boundary, given the (B, out) gradient of the loss w.r.t. the
// batched network output. It must follow a ForwardBatch call on the same
// batch with no other pass through the network in between, and accumulates
// sample by sample in batch order.
func (n *Network) BackwardBatch(grad *tensor.Tensor) {
	for i := len(n.Layers) - 1; i >= n.trainFrom; i-- {
		needInput := i > n.trainFrom
		grad = n.Layers[i].BackwardBatch(grad, needInput)
	}
}

// SetConfig freezes the network according to the paper's topology: E2E
// unfreezes everything; Lk unfreezes only the last k Dense layers (backprop
// starts at the earliest of them, including interleaved activations).
func (n *Network) SetConfig(c Config) {
	n.trainable = nil
	if c == E2E {
		n.trainFrom = 0
		return
	}
	k := c.TrainedFCLayers()
	// Walk backwards counting Dense layers; the boundary is the index of
	// the k-th Dense layer from the end.
	seen := 0
	for i := len(n.Layers) - 1; i >= 0; i-- {
		if _, ok := n.Layers[i].(*Dense); ok {
			seen++
			if seen == k {
				n.trainFrom = i
				return
			}
		}
	}
	// Fewer Dense layers than requested: train everything.
	n.trainFrom = 0
}

// TrainFrom returns the index of the first trainable layer.
func (n *Network) TrainFrom() int { return n.trainFrom }

// TrainableParams returns the parameters that receive gradients under the
// current configuration. The returned slice is cached — treat it as
// read-only.
func (n *Network) TrainableParams() []*Param {
	if n.trainable == nil {
		for i := n.trainFrom; i < len(n.Layers); i++ {
			n.trainable = append(n.trainable, n.Layers[i].Params()...)
		}
	}
	return n.trainable
}

// Params returns every parameter in the network. The returned slice is
// cached — treat it as read-only.
func (n *Network) Params() []*Param {
	if n.params == nil {
		for _, l := range n.Layers {
			n.params = append(n.params, l.Params()...)
		}
	}
	return n.params
}

// WeightCount returns the total number of learnable scalars.
func (n *Network) WeightCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// TrainableWeightCount returns the number of scalars updated under the
// current configuration. The ratio to WeightCount reproduces the "% of total
// weights" annotations of Fig. 3(b) (4%, 11%, 26%, 100%).
func (n *Network) TrainableWeightCount() int {
	total := 0
	for _, p := range n.TrainableParams() {
		total += p.W.Len()
	}
	return total
}

// ZeroGrad clears all gradient accumulators.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.G.Zero()
	}
}

// Step applies one SGD update w -= lr/batch * g to the trainable parameters
// and clears their accumulators. This is the weight-update phase the
// accelerator performs after processing a batch of N images (Fig. 3(b)).
func (n *Network) Step(lr float64, batch int) {
	if batch <= 0 {
		panic("nn: Step with non-positive batch size")
	}
	scale := float32(-lr / float64(batch))
	for _, p := range n.TrainableParams() {
		p.W.AddScaled(p.G, scale)
		p.MarkChanged()
		p.G.Zero()
	}
}

// ClipGrad scales accumulated gradients down if their global L-infinity norm
// exceeds limit; it returns the norm before clipping. Gradient explosion is
// a practical hazard of online Q-learning with bootstrapped targets.
func (n *Network) ClipGrad(limit float64) float64 {
	var m float64
	for _, p := range n.TrainableParams() {
		if v := p.G.MaxAbs(); v > m {
			m = v
		}
	}
	if m > limit && m > 0 {
		s := float32(limit / m)
		for _, p := range n.TrainableParams() {
			p.G.Scale(s)
		}
	}
	return m
}

// CopyWeightsFrom copies all parameter values (not gradients) from src.
// The architectures must match exactly. This is the "download the meta-model
// to the drone" step of the TL pipeline.
func (n *Network) CopyWeightsFrom(src *Network) error {
	dst := n.Params()
	srcPs := src.Params()
	if len(dst) != len(srcPs) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dst), len(srcPs))
	}
	for i, p := range dst {
		if p.W.Len() != srcPs[i].W.Len() {
			return fmt.Errorf("nn: parameter %q size mismatch %d vs %d", p.Name, p.W.Len(), srcPs[i].W.Len())
		}
		copy(p.W.Data(), srcPs[i].W.Data())
		p.MarkChanged()
	}
	return nil
}
