package hw

// The paper's 32x32 processing-element array (Fig. 4(b)) and its FC
// dataflows. Forward propagation (Fig. 7): the weight matrix is tiled onto
// the PE grid, the input vector propagates row-wise, partial sums accumulate
// vertically. Backpropagation (Fig. 8): the same resident tiles serve the
// vector-TRANSPOSED-matrix product — the gradient vector propagates down the
// columns and partial sums accumulate row-wise — "without transposing the
// matrix itself". The conv dataflow's row-stationary mapping is mapping.go's.

// arrayConfig captures the system parameters of Fig. 4(b).
type arrayConfig struct {
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

// defaultArray returns the paper's post-synthesis configuration.
func defaultArray() arrayConfig {
	return arrayConfig{
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
func (a arrayConfig) PEs() int { return a.Rows * a.Cols }

// RFWords returns the register-file capacity in 16-bit words.
func (a arrayConfig) RFWords() int { return a.RFBytes * 8 / a.WordBits }

// CyclesToNS converts a cycle count to nanoseconds at the array clock.
func (a arrayConfig) CyclesToNS(cycles float64) float64 { return cycles / a.ClockGHz }

// fcActivePEs returns the paper's active-PE accounting for an FC layer of
// the given output width: all 32 PE rows are busy, and the number of active
// columns is bounded by the outputs each column family produces (FC5 with 5
// outputs keeps 5 columns busy: 5 x 32 = 160 active PEs, as in Fig. 12).
func fcActivePEs(a arrayConfig, out int) int {
	cols := a.Cols
	if out < cols {
		cols = out
	}
	return cols * a.Rows
}

// fcFillDrainCycles returns the cycles one out x in vector-matrix product
// spends filling and draining the array rather than issuing MACs. The matrix
// is spread over the full grid (inputs over rows, outputs over columns) in
// per-PE blocks, shrunk until a block fits half the register file (the other
// half buffers operands and partial sums), and cut into Rows x Cols tile
// passes. Each pass skews its operands across activeCols-1 columns and drains
// its partial sums down activeRows-1 rows. Over all passes the active columns
// of one row of tiles add up to the ceil(out/blockOut) column blocks, and the
// active rows of one column of tiles to the ceil(in/blockIn) row blocks.
// When consecutive samples stream through the same resident tiles, every
// sample after the first overlaps its fill with the previous one's drain, so
// this is the per-sample saving a pipelined batch amortizes.
func fcFillDrainCycles(a arrayConfig, out, in int) int64 {
	blockIn, blockOut := ceilDiv(in, a.Rows), ceilDiv(out, a.Cols)
	for budget := a.RFWords() / 2; blockIn*blockOut > budget; {
		if blockOut > 1 {
			blockOut = ceilDiv(blockOut, 2)
		} else {
			blockIn = ceilDiv(blockIn, 2)
		}
	}
	rowTiles := ceilDiv(in, a.Rows*blockIn)
	colTiles := ceilDiv(out, a.Cols*blockOut)
	skew := int64(rowTiles) * int64(ceilDiv(out, blockOut)-colTiles)
	drain := int64(colTiles) * int64(ceilDiv(in, blockIn)-rowTiles)
	return skew + drain
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
