package systolic

// Array is the PE-array model: the cycle simulators (SimulateFC,
// SimulateConv) step the paper's dataflows over it and report what they
// cost. It computes no values — the accelerator's arithmetic is the int16
// engine of internal/qnn.
type Array struct {
	Cfg ArrayConfig
}

// New creates a model over the given array configuration.
func New(cfg ArrayConfig) *Array { return &Array{Cfg: cfg} }
