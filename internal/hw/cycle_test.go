package hw

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dronerl/internal/nn"
)

// Cycle-level simulation of the PE array. The package's one timing source is
// the forward and backward tables; these simulators step the same dataflows
// cycle by cycle and serve as their oracle: they must busy the PEs the
// tables count, see the fill/drain the batch discount amortizes, and land
// near the conv rows' broadcast-bound latencies.
//
// The simulated machine: a Rows x Cols grid. Each PE holds a weight tile in
// its register file, one input operand register, and one partial-sum
// register. Per cycle a PE can execute up to MACsPerPE multiply-
// accumulates against its resident tile, pass its input operand to the
// next PE in the row (128-bit link, Fig. 7), and push a finished partial
// sum down its column. Operands enter at the left edge from the global
// buffer, one wavefront per cycle.

// cycleStats summarizes a cycle-accurate run.
type cycleStats struct {
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
	// issue.
	FillDrainCycles int64
}

// utilization returns busy-PE-cycles / (activePEs x cycles), the duty
// factor of the powered region.
func utilization(s cycleStats) float64 {
	return float64(s.BusyPECycles) / float64(s.Cycles*int64(s.ActivePEs))
}

// simulateFC steps the array through one vector-matrix product y = Wx for
// an out x in weight matrix mapped as tiles over the grid (Fig. 7):
//
//   - the matrix is cut into Rows x Cols tiles of per-PE blocks;
//   - within a tile pass, input elements enter column 0 and skew across
//     the row one hop per cycle (systolic wavefront);
//   - each PE multiplies its resident weights against the operand it
//     holds, MACsPerPE per cycle;
//   - after the wavefront drains, partial sums ripple down each column to
//     the accumulation row, one hop per cycle.
func simulateFC(cfg arrayConfig, out, in int) cycleStats {
	if out <= 0 || in <= 0 {
		panic(fmt.Sprintf("simulateFC with dimensions %dx%d", out, in))
	}
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

	var stats cycleStats
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

// passes returns the mapping's total pass count.
func (m convMapping) passes() int { return m.OCRounds * m.RowRounds * m.SplitRounds }

// simulateConv steps one forward convolution through its row-stationary
// mapping pass by pass, serializing each pass's phases the way the
// accelerator does: filter rows broadcast from the global buffer, image
// rows distributed into the register files, row convolutions in the MAC
// units, and the vertical (plus cross-set) partial-sum drain.
func simulateConv(cfg arrayConfig, shape convShape) cycleStats {
	m := planConv(cfg, shape)
	tr := m.traffic(shape)
	passes := int64(m.passes())
	if passes < 1 {
		passes = 1
	}

	var stats cycleStats
	stats.ActivePEs = m.ActivePEs

	// Per-pass phase lengths (words stream at one per cycle on the
	// broadcast bus, mechanism 2's calibration).
	filterLoad := tr.WeightWords / passes
	imgLoad := tr.InputWords / passes
	macsPerPass := shape.MACs() / passes
	computePerPE := macsPerPass / int64(m.ActivePEs*cfg.MACsPerPE)
	if computePerPE < 1 {
		computePerPE = 1
	}
	drain := int64(m.SegRows - 1)
	if m.Sets > 1 {
		drain += int64(m.SegCols)
	}

	for p := int64(0); p < passes; p++ {
		stats.Cycles += filterLoad + imgLoad + computePerPE + drain
		stats.BusyPECycles += computePerPE * int64(m.ActivePEs)
		stats.MACs += macsPerPass
	}
	// Distribute the integer-division remainder of the MAC count.
	stats.MACs += shape.MACs() - macsPerPass*passes
	return stats
}

// TestSimulatorsAgreeWithTables holds the forward table, row by row on
// NavNet and the paper's AlexNet, to the cycle simulators: every row's
// active PEs are the simulated array's ever-busy PEs, every FC row's
// closed-form fill/drain (the batch discount's) is the simulated one, and
// every conv row's latency at the array clock is within the row's stated
// tolerance of the simulated cycles. The simulator serializes each pass's
// phases where the table takes max(broadcast, compute) plus the output
// writeback; each tolerance sits just above the error that difference
// leaves on its row.
func TestSimulatorsAgreeWithTables(t *testing.T) {
	cases := []struct {
		spec nn.ArchSpec
		// convTolPct is the allowed |cycles - latency x clock| / cycles
		// per conv row, in percent. Achieved: NavNet 0.136 and 0.194;
		// AlexNet 3.863, 5.531, 1.788, 1.797 and 1.797.
		convTolPct []float64
	}{
		{nn.NavNetSpec(), []float64{0.15, 0.2}},
		{nn.ModifiedAlexNetSpec(), []float64{3.9, 5.6, 1.8, 1.8, 1.8}},
	}
	for _, tc := range cases {
		m := NewModelFor(tc.spec)
		shapes := m.convShapes()
		if len(shapes) != len(tc.convTolPct) {
			t.Fatalf("%s: %d conv rows, %d tolerances", tc.spec.Name, len(shapes), len(tc.convTolPct))
		}
		for i, row := range m.ForwardTable() {
			if i < len(shapes) {
				sim := simulateConv(m.array, shapes[i])
				if sim.ActivePEs != row.ActivePEs {
					t.Errorf("%s %s: simulated %d active PEs, table %d", tc.spec.Name, row.Layer, sim.ActivePEs, row.ActivePEs)
				}
				tableCycles := row.LatencyMS * 1e6 * m.array.ClockGHz
				errPct := 100 * math.Abs(tableCycles-float64(sim.Cycles)) / float64(sim.Cycles)
				t.Logf("%s %s: simulated %d cycles, table %.0f (%.3f %%)", tc.spec.Name, row.Layer, sim.Cycles, tableCycles, errPct)
				if errPct > tc.convTolPct[i] {
					t.Errorf("%s %s: table %.0f cycles against simulated %d, %.3f %% apart (tolerance %.2f %%)",
						tc.spec.Name, row.Layer, tableCycles, sim.Cycles, errPct, tc.convTolPct[i])
				}
				continue
			}
			f := m.Arch.FCs[i-len(shapes)]
			sim := simulateFC(m.array, f.Out, f.In)
			if sim.ActivePEs != row.ActivePEs {
				t.Errorf("%s %s: simulated %d active PEs, table %d", tc.spec.Name, row.Layer, sim.ActivePEs, row.ActivePEs)
			}
			if plan := fcFillDrainCycles(m.array, f.Out, f.In); sim.FillDrainCycles != plan {
				t.Errorf("%s %s: simulated fill/drain %d cycles, tile plan %d", tc.spec.Name, row.Layer, sim.FillDrainCycles, plan)
			}
		}
	}
}

// TestFCFillDrainMatchesSimulation checks the closed-form tile plan against
// the stepped one on arbitrary shapes, ragged edge tiles included.
func TestFCFillDrainMatchesSimulation(t *testing.T) {
	a := defaultArray()
	err := quick.Check(func(o, i uint16) bool {
		out, in := int(o%5000)+1, int(i%5000)+1
		return fcFillDrainCycles(a, out, in) == simulateFC(a, out, in).FillDrainCycles
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func TestSimulateFCCountsAllMACs(t *testing.T) {
	a := defaultArray()
	cases := []struct{ out, in int }{
		{5, 1024},   // FC5
		{64, 64},    // small square
		{2048, 512}, // ragged tiles
		{1, 1},
	}
	for _, c := range cases {
		s := simulateFC(a, c.out, c.in)
		want := int64(c.out) * int64(c.in)
		if s.MACs != want {
			t.Errorf("%dx%d: %d MACs simulated, want %d", c.out, c.in, s.MACs, want)
		}
		if s.Cycles <= 0 {
			t.Errorf("%dx%d: non-positive cycles", c.out, c.in)
		}
	}
}

func TestSimulateFCActivePEsMatchMapping(t *testing.T) {
	// The cycle model's ever-busy PE count must agree with the
	// closed-form fcActivePEs used by the performance model.
	a := defaultArray()
	cases := []struct{ out, in int }{
		{5, 1024},    // FC5: 5 columns busy -> 160
		{4096, 9216}, // FC1: full array
		{1024, 2048}, // FC4
	}
	for _, c := range cases {
		s := simulateFC(a, c.out, c.in)
		want := fcActivePEs(a, c.out)
		if s.ActivePEs != want {
			t.Errorf("%dx%d: cycle model active PEs %d, closed form %d", c.out, c.in, s.ActivePEs, want)
		}
	}
}

func TestSimulateFCWideLayerBusierThanNarrow(t *testing.T) {
	// FC5 (5 outputs) must leave most of the array idle compared with
	// FC4 (1024 outputs) — the effect behind the paper's 160-PE row.
	a := defaultArray()
	narrow := simulateFC(a, 5, 1024)
	wide := simulateFC(a, 1024, 2048)
	if narrow.ActivePEs >= wide.ActivePEs {
		t.Errorf("narrow layer uses %d PEs, wide uses %d", narrow.ActivePEs, wide.ActivePEs)
	}
	if float64(wide.MACs)/float64(wide.Cycles) <= float64(narrow.MACs)/float64(narrow.Cycles) {
		t.Error("wide layer must sustain higher MAC throughput")
	}
}

func TestSimulateFCPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	simulateFC(defaultArray(), 0, 5)
}

func TestSimulateFCMACCountProperty(t *testing.T) {
	// Property: for arbitrary layer dimensions the simulated MAC count
	// equals out x in exactly (no work lost to ragged tiles).
	a := defaultArray()
	err := quick.Check(func(o, i uint16) bool {
		out := int(o%3000) + 1
		in := int(i%3000) + 1
		s := simulateFC(a, out, in)
		return s.MACs == int64(out)*int64(in)
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestSimulateConvCountsAllMACs(t *testing.T) {
	a := defaultArray()
	for _, s := range paperConvShapes() {
		st := simulateConv(a, s)
		if st.MACs != s.MACs() {
			t.Errorf("%s: %d MACs simulated, want %d", s.Name, st.MACs, s.MACs())
		}
		if st.Cycles <= 0 || st.ActivePEs <= 0 {
			t.Errorf("%s: degenerate stats %+v", s.Name, st)
		}
		if u := utilization(st); u <= 0 || u > 1 {
			t.Errorf("%s: utilization %v", s.Name, u)
		}
	}
}

func TestSimulateConvStreamingBound(t *testing.T) {
	// The paper's conv layers are data-movement bound: MAC utilization
	// of the powered region stays well below 1 because the broadcast
	// phases dominate each pass.
	a := defaultArray()
	for _, s := range paperConvShapes()[1:] { // CONV2..CONV5
		if u := utilization(simulateConv(a, s)); u > 0.6 {
			t.Errorf("%s: utilization %.2f, expected streaming-bound (<0.6)", s.Name, u)
		}
	}
}

func TestSimulateConvMatchesPaperOrderOfMagnitude(t *testing.T) {
	// CONV2's simulated latency must land near the paper's 1.087 ms
	// (the cycle model shares the broadcast-bus calibration with the
	// analytical model, so this checks internal consistency end to end).
	a := defaultArray()
	ms := a.CyclesToNS(float64(simulateConv(a, paperConvShapes()[1]).Cycles)) / 1e6
	if ms < 0.4 || ms > 2.5 {
		t.Errorf("CONV2 simulated at %.3f ms, paper 1.087", ms)
	}
}
