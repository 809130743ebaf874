package systolic

// FC dataflows. Forward propagation (Fig. 7): the weight matrix is tiled
// onto the PE grid, the input vector propagates row-wise, partial sums
// accumulate vertically (stepped by SimulateFC). Backpropagation (Fig. 8):
// the same resident tiles serve the vector-TRANSPOSED-matrix product — the
// gradient vector propagates down the columns and partial sums accumulate
// row-wise — "without transposing the matrix itself".

// FCActivePEs returns the paper's active-PE accounting for an FC layer of
// the given output width: all 32 PE rows are busy, and the number of active
// columns is bounded by the outputs each column family produces (FC5 with 5
// outputs keeps 5 columns busy: 5 x 32 = 160 active PEs, as in Fig. 12).
func FCActivePEs(a ArrayConfig, out int) int {
	cols := a.Cols
	if out < cols {
		cols = out
	}
	return cols * a.Rows
}
