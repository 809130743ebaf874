package systolic

import "fmt"

// Cycle-level simulation of the PE array for the FC dataflows. Where the
// planner (mapping.go) prices *how much* the dataflows move, this model
// steps the array cycle by cycle and reports utilization, the quantity the
// paper's active-PE and power columns are really about. What the dataflows
// compute is the int16 engine's business (internal/qnn), not this model's.
//
// The simulated machine: a Rows x Cols grid. Each PE holds a weight tile in
// its register file, one input operand register, and one partial-sum
// register. Per cycle a PE can execute up to MACsPerPE multiply-
// accumulates against its resident tile, pass its input operand to the
// next PE in the row (128-bit link, Fig. 7), and push a finished partial
// sum down its column. Operands enter at the left edge from the global
// buffer, one wavefront per cycle.

// CycleStats summarizes a cycle-accurate run.
type CycleStats struct {
	// Cycles is the total simulated cycle count.
	Cycles int64
	// BusyPECycles counts (PE, cycle) pairs with at least one MAC issued.
	BusyPECycles int64
	// MACs is the total multiply-accumulates executed.
	MACs int64
	// ActivePEs is the number of PEs that were ever busy.
	ActivePEs int
	// FillDrainCycles is the share of Cycles spent on the wavefront skew
	// into the array and the partial-sum drain out of it rather than on MAC
	// issue. When consecutive samples stream through the same resident tiles
	// (batched inference), every sample after the first overlaps its fill
	// with the previous sample's drain, so this is the per-sample saving a
	// pipelined batch amortizes.
	FillDrainCycles int64
}

// Utilization returns busy-PE-cycles / (activePEs x cycles), the duty
// factor of the powered region.
func (s CycleStats) Utilization() float64 {
	if s.Cycles == 0 || s.ActivePEs == 0 {
		return 0
	}
	return float64(s.BusyPECycles) / float64(s.Cycles*int64(s.ActivePEs))
}

// EffectiveMACsPerCycle returns MACs / cycles.
func (s CycleStats) EffectiveMACsPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.MACs) / float64(s.Cycles)
}

// SimulateFC steps the array through one vector-matrix product y = Wx for
// an out x in weight matrix mapped as tiles over the grid (Fig. 7):
//
//   - the matrix is cut into Rows x Cols tiles of per-PE blocks;
//   - within a tile pass, input elements enter column 0 and skew across
//     the row one hop per cycle (systolic wavefront);
//   - each PE multiplies its resident weights against the operand it
//     holds, MACsPerPE per cycle;
//   - after the wavefront drains, partial sums ripple down each column to
//     the accumulation row, one hop per cycle.
//
// The function returns the cycle statistics; tests check the simulated MAC
// count against out x in for arbitrary shapes.
func (a *Array) SimulateFC(out, in int) CycleStats {
	if out <= 0 || in <= 0 {
		panic(fmt.Sprintf("systolic: SimulateFC with dimensions %dx%d", out, in))
	}
	cfg := a.Cfg
	// Per-PE block: spread the matrix across the full grid first (the
	// Fig. 7 distribution — inputs over rows, outputs over columns),
	// then shrink the block until a tile fits half the register file
	// (the other half buffers operands/psums).
	blockIn := ceilDiv(in, cfg.Rows)
	blockOut := ceilDiv(out, cfg.Cols)
	budget := cfg.RFWords() / 2
	for blockIn*blockOut > budget {
		if blockOut > 1 {
			blockOut = ceilDiv(blockOut, 2)
		} else {
			blockIn = ceilDiv(blockIn, 2)
		}
	}

	rowTiles := ceilDiv(in, cfg.Rows*blockIn)
	colTiles := ceilDiv(out, cfg.Cols*blockOut)

	var stats CycleStats
	everBusy := make([]bool, cfg.Rows*cfg.Cols)

	for rt := 0; rt < rowTiles; rt++ {
		for ct := 0; ct < colTiles; ct++ {
			// Grid region active in this tile pass (edge tiles are
			// ragged).
			remIn := in - rt*cfg.Rows*blockIn
			remOut := out - ct*cfg.Cols*blockOut
			activeRows := ceilDiv(remIn, blockIn)
			if activeRows > cfg.Rows {
				activeRows = cfg.Rows
			}
			activeCols := ceilDiv(remOut, blockOut)
			if activeCols > cfg.Cols {
				activeCols = cfg.Cols
			}
			// MACs per PE in this pass: blockOut outputs x blockIn
			// inputs; a PE issues MACsPerPE per cycle once its operand
			// arrives.
			perPE := blockOut * blockIn
			computeCycles := ceilDiv(perPE, cfg.MACsPerPE)
			// Wavefront skew: operand reaches column c at cycle c.
			passCycles := int64(activeCols - 1 + computeCycles)
			// Column drain of partial sums to the accumulation row.
			passCycles += int64(activeRows - 1)
			stats.Cycles += passCycles
			stats.FillDrainCycles += int64(activeCols-1) + int64(activeRows-1)

			for r := 0; r < activeRows; r++ {
				iBase := rt*cfg.Rows*blockIn + r*blockIn
				rowsHere := blockIn
				if iBase+rowsHere > in {
					rowsHere = in - iBase
				}
				for c := 0; c < activeCols; c++ {
					idx := r*cfg.Cols + c
					everBusy[idx] = true
					stats.BusyPECycles += int64(computeCycles)
					oBase := ct*cfg.Cols*blockOut + c*blockOut
					colsHere := blockOut
					if oBase+colsHere > out {
						colsHere = out - oBase
					}
					stats.MACs += int64(rowsHere) * int64(colsHere)
				}
			}
		}
	}
	for _, b := range everBusy {
		if b {
			stats.ActivePEs++
		}
	}
	return stats
}

// SimulateFCLatencyNS converts a SimulateFC run to nanoseconds at the
// array clock.
func (a *Array) SimulateFCLatencyNS(out, in int) float64 {
	return a.Cfg.CyclesToNS(float64(a.SimulateFC(out, in).Cycles))
}
