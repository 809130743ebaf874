package nn

// NavNet is the scaled-down navigation network used by the flight-learning
// experiments (Fig. 10/11 reproduction). It preserves the structural
// properties the paper's argument rests on — a convolutional feature
// extractor feeding a chain of FC layers, with the L2/L3/L4 configurations
// training the last 2/3/4 FC layers — while being small enough to run tens
// of thousands of online RL iterations in pure Go. See DESIGN.md §2 for the
// substitution rationale.

// NavNetInput is the square depth-image side length consumed by NavNet.
const NavNetInput = 32

// NavNetActions is the action-space size (forward, ±25°, ±55°), identical
// to the paper's.
const NavNetActions = 5

// NavNetSpec returns the scaled architecture: 2 conv + 4 FC layers on
// 32x32x1 depth images.
func NavNetSpec() ArchSpec {
	return ArchSpec{
		Name:   "NavNet",
		InputC: 1, InputH: NavNetInput, InputW: NavNetInput,
		Convs: []ConvSpec{
			{Name: "CONV1", InC: 1, OutC: 8, K: 5, Stride: 2, Pad: 2},
			{Name: "CONV2", InC: 8, OutC: 16, K: 3, Stride: 2, Pad: 1},
		},
		FCs: []FCSpec{
			{Name: "FC1", In: 1024, Out: 128},
			{Name: "FC2", In: 128, Out: 64},
			{Name: "FC3", In: 64, Out: 32},
			{Name: "FC4", In: 32, Out: NavNetActions},
		},
		PoolK: 3, PoolStride: 2,
	}
}
