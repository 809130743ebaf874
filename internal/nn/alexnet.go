package nn

import "fmt"

// The modified AlexNet of the paper (Fig. 3(a)): input 227x227x3 camera
// frames, five convolutional layers and five fully-connected layers, ending
// in 5 Q-values (one per action). Weight counts reproduce the paper's table
// exactly, including the 56,190,341-weight grand total.

// ConvSpec describes one convolutional stage of the architecture.
type ConvSpec struct {
	Name   string
	InC    int
	OutC   int
	K      int // square kernel
	Stride int
	Pad    int
	LRN    bool // local response normalization after ReLU
	Pool   bool // 3x3 stride-2 max-pooling at the end of the stage
}

// Weights returns the learnable scalar count including biases.
func (c ConvSpec) Weights() int { return c.OutC*c.InC*c.K*c.K + c.OutC }

// FCSpec describes one fully-connected stage.
type FCSpec struct {
	Name string
	In   int
	Out  int
}

// Weights returns the learnable scalar count including biases,
// reproducing the "# weights" column of Fig. 3(a).
func (f FCSpec) Weights() int { return f.In*f.Out + f.Out }

// ArchSpec is a full network architecture description, sufficient both to
// build the network and to drive the hardware performance model without
// allocating any weights.
type ArchSpec struct {
	Name                   string
	InputC, InputH, InputW int
	Convs                  []ConvSpec
	FCs                    []FCSpec
	PoolK, PoolStride      int
}

// ModifiedAlexNetSpec returns the paper's architecture.
func ModifiedAlexNetSpec() ArchSpec {
	return ArchSpec{
		Name:   "ModifiedAlexNet",
		InputC: 3, InputH: 227, InputW: 227,
		Convs: []ConvSpec{
			{Name: "CONV1", InC: 3, OutC: 96, K: 11, Stride: 4, Pad: 0, LRN: true, Pool: true},
			{Name: "CONV2", InC: 96, OutC: 256, K: 5, Stride: 1, Pad: 2, LRN: true, Pool: true},
			{Name: "CONV3", InC: 256, OutC: 384, K: 3, Stride: 1, Pad: 1},
			{Name: "CONV4", InC: 384, OutC: 384, K: 3, Stride: 1, Pad: 1},
			{Name: "CONV5", InC: 384, OutC: 256, K: 3, Stride: 1, Pad: 1, Pool: true},
		},
		FCs: []FCSpec{
			{Name: "FC1", In: 9216, Out: 4096},
			{Name: "FC2", In: 4096, Out: 2048},
			{Name: "FC3", In: 2048, Out: 2048},
			{Name: "FC4", In: 2048, Out: 1024},
			{Name: "FC5", In: 1024, Out: 5},
		},
		PoolK: 3, PoolStride: 2,
	}
}

// ConvOut returns the spatial output size of conv stage i (after pooling if
// the stage pools) together with the pre-pool size.
func (a ArchSpec) ConvOut(i int) (prePool, postPool int) {
	h := a.InputH
	for j := 0; j <= i; j++ {
		c := a.Convs[j]
		h = (h+2*c.Pad-c.K)/c.Stride + 1
		prePool = h
		if c.Pool {
			h = (h-a.PoolK)/a.PoolStride + 1
		}
	}
	return prePool, h
}

// FlattenDim returns the FC input dimension implied by the conv stack.
// TestConvChainDimensions pins it at the paper's 9216.
func (a ArchSpec) FlattenDim() int {
	if len(a.Convs) == 0 {
		return a.InputC * a.InputH * a.InputW
	}
	last := len(a.Convs) - 1
	_, h := a.ConvOut(last)
	return a.Convs[last].OutC * h * h
}

// ConvWeights returns the learnable scalar count of all conv stages.
// TestConvWeightsBreakdown pins it against Fig. 3(a).
func (a ArchSpec) ConvWeights() int {
	total := 0
	for _, c := range a.Convs {
		total += c.Weights()
	}
	return total
}

// FCWeights returns the learnable scalar count of all FC stages.
func (a ArchSpec) FCWeights() int {
	total := 0
	for _, f := range a.FCs {
		total += f.Weights()
	}
	return total
}

// TotalWeights returns the grand total (56,190,341 for the paper's network).
func (a ArchSpec) TotalWeights() int { return a.ConvWeights() + a.FCWeights() }

// TrainedWeights returns the scalar count updated online under config c:
// the last k FC layers for Lk, or everything for E2E.
func (a ArchSpec) TrainedWeights(c Config) int {
	if c == E2E {
		return a.TotalWeights()
	}
	k := min(c.TrainedFCLayers(), len(a.FCs))
	total := 0
	for i := len(a.FCs) - k; i < len(a.FCs); i++ {
		total += a.FCs[i].Weights()
	}
	return total
}

// TrainedFraction returns TrainedWeights/TotalWeights, the fractions the
// paper rounds to 4%, 11% and 26% in Fig. 3(b).
func (a ArchSpec) TrainedFraction(c Config) float64 {
	return float64(a.TrainedWeights(c)) / float64(a.TotalWeights())
}

// CensusRow is one line of the Fig. 3(a) weight table.
type CensusRow struct {
	Layer         string
	Neurons       int     // neuron count at the layer input
	Weights       int     // learnable scalars of this FC stage (incl. bias)
	PctTotal      float64 // percentage of the grand total
	PctCumulative float64 // percentage of this and all later FC stages
}

// WeightCensus reproduces the FC-layer table of Fig. 3(a): per-layer neuron
// and weight counts plus the percent-of-total and cumulative-percent columns,
// with an extra "output" row carrying the action count.
func (a ArchSpec) WeightCensus() []CensusRow {
	total := float64(a.TotalWeights())
	rows := make([]CensusRow, 0, len(a.FCs)+1)
	// Cumulative sums from the end.
	cum := make([]int, len(a.FCs)+1)
	for i := len(a.FCs) - 1; i >= 0; i-- {
		cum[i] = cum[i+1] + a.FCs[i].Weights()
	}
	for i, f := range a.FCs {
		rows = append(rows, CensusRow{
			Layer:         f.Name,
			Neurons:       f.In,
			Weights:       f.Weights(),
			PctTotal:      100 * float64(f.Weights()) / total,
			PctCumulative: 100 * float64(cum[i]) / total,
		})
	}
	rows = append(rows, CensusRow{Layer: "output", Neurons: a.FCs[len(a.FCs)-1].Out})
	return rows
}

// NeuronSum returns the sum of the census neuron column (18,437 for the
// paper's network).
func (a ArchSpec) NeuronSum() int {
	s := 0
	for _, r := range a.WeightCensus() {
		s += r.Neurons
	}
	return s
}

// Build allocates the network described by the spec. For the paper's
// full-size architecture this allocates roughly 450 MB of float32 weights
// and gradient accumulators; call it deliberately.
func (a ArchSpec) Build() *Network {
	var layers []Layer
	for i, c := range a.Convs {
		layers = append(layers, NewConv2D(c.Name, c.InC, c.OutC, c.K, c.K, c.Stride, c.Pad))
		layers = append(layers, NewReLU(c.Name+".relu"))
		if c.LRN {
			layers = append(layers, NewLRN(c.Name+".norm"))
		}
		if c.Pool {
			layers = append(layers, NewMaxPool(c.Name+".pool", a.PoolK, a.PoolStride))
		}
		_ = i
	}
	layers = append(layers, NewFlatten("flatten"))
	for i, f := range a.FCs {
		layers = append(layers, NewDense(f.Name, f.In, f.Out))
		if i < len(a.FCs)-1 {
			layers = append(layers, NewReLU(f.Name+".relu"))
		}
	}
	return NewNetwork(layers...)
}

// Validate checks internal consistency: the flatten dimension implied by the
// conv stack must match the first FC input.
func (a ArchSpec) Validate() error {
	if len(a.FCs) == 0 {
		return fmt.Errorf("nn: spec %q has no FC layers", a.Name)
	}
	if got, want := a.FlattenDim(), a.FCs[0].In; got != want {
		return fmt.Errorf("nn: spec %q flatten dim %d does not match FC1 input %d", a.Name, got, want)
	}
	for i := 1; i < len(a.FCs); i++ {
		if a.FCs[i-1].Out != a.FCs[i].In {
			return fmt.Errorf("nn: spec %q FC chain broken at %s", a.Name, a.FCs[i].Name)
		}
	}
	for i := 1; i < len(a.Convs); i++ {
		if a.Convs[i-1].OutC != a.Convs[i].InC {
			return fmt.Errorf("nn: spec %q conv chain broken at %s", a.Name, a.Convs[i].Name)
		}
	}
	return nil
}
