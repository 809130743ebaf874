// Package systolic models the paper's 32x32 processing-element array: the
// row-stationary convolution dataflow (Fig. 6, mapping Types I-III), the
// vector-matrix FC dataflow (Fig. 7), and the vector-transposed-matrix
// dataflow used by FC backpropagation (Fig. 8). A mapping planner exposes
// the pass structure the analytical performance model (internal/hw)
// prices, and cycle simulators step the FC and conv dataflows over the
// array. The package computes no values: the accelerator's 16-bit
// arithmetic is internal/qnn's.
package systolic

// ArrayConfig captures the system parameters of Fig. 4(b).
type ArrayConfig struct {
	// Rows, Cols of the PE array (32 x 32 = 1024 PEs).
	Rows, Cols int
	// MACsPerPE is the number of multiply-accumulate units per PE (8).
	MACsPerPE int
	// ComparatorsPerPE implement ReLU and maxpool (8).
	ComparatorsPerPE int
	// RFBytes is the register file per PE (4.5 KB).
	RFBytes int
	// GBBroadcastBits is the global-buffer-to-PE-row interface width
	// ("4096 connections with 32 PEs in the first row").
	GBBroadcastBits int
	// LinkBits is the PE-to-PE connection width (128).
	LinkBits int
	// ClockGHz is the operating frequency (1 GHz at 0.8 V).
	ClockGHz float64
	// WordBits is the fixed-point precision (16).
	WordBits int
}

// DefaultArray returns the paper's post-synthesis configuration.
func DefaultArray() ArrayConfig {
	return ArrayConfig{
		Rows: 32, Cols: 32,
		MACsPerPE: 8, ComparatorsPerPE: 8,
		RFBytes:         4608, // 4.5 KB
		GBBroadcastBits: 4096,
		LinkBits:        128,
		ClockGHz:        1,
		WordBits:        16,
	}
}

// PEs returns the total PE count (1024).
func (a ArrayConfig) PEs() int { return a.Rows * a.Cols }

// RFWords returns the register-file capacity in 16-bit words.
func (a ArrayConfig) RFWords() int { return a.RFBytes * 8 / a.WordBits }

// CyclesToNS converts a cycle count to nanoseconds at the array clock.
func (a ArrayConfig) CyclesToNS(cycles float64) float64 { return cycles / a.ClockGHz }

// PeakTOPS returns the peak throughput in tera-operations per second
// (MACs counted as 2 ops), 16.4 TOPS for the default array; the paper
// quotes 1.5 TOPS/W peak efficiency at ~11 W peak power.
func (a ArrayConfig) PeakTOPS() float64 {
	return float64(a.PEs()*a.MACsPerPE) * 2 * a.ClockGHz / 1e3
}
