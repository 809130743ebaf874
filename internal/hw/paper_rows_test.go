package hw

import (
	"math"
	"testing"

	"dronerl/internal/nn"
)

// paperTol bounds one modeled row against its printed twin: latency, active
// PEs and energy, each in percent of the paper's value.
type paperTol struct{ lat, pe, energy float64 }

// fig12Tol holds every Fig. 12 row, keyed by subtest name. Each bound sits
// just above the error the model achieves (at most 1.1x it): a row that
// drifts fails, and so does a row that improves until its bound is tightened.
var fig12Tol = map[string]paperTol{
	"fwd/CONV1+ReLU+Maxpool": {79.1, 0, 117},
	"fwd/CONV2+ReLU+Maxpool": {9.47, 0, 4.67},
	"fwd/CONV3+ReLU":         {31.6, 0, 49.4},
	"fwd/CONV4+ReLU":         {24.0, 0, 40.3},
	"fwd/CONV5+ReLU+Maxpool": {5.23, 0, 7.66},
	"fwd/FC1+ReLU":           {9.96, 0, 11.1},
	"fwd/FC2+ReLU":           {10.3, 0, 11.3},
	"fwd/FC3+ReLU":           {16.7, 0, 25.0},
	"fwd/FC4+ReLU":           {17.1, 0, 25.1},
	"fwd/FC5+ReLU":           {62.8, 0, 78.8},
	"fwd/total":              {11.7, 12.5, 17.9},

	"bwd/FC5+ReLU":           {39.3, 0, 46.0},
	"bwd/FC4+ReLU":           {11.8, 0, 17.2},
	"bwd/FC3+ReLU":           {12.4, 0, 25.2},
	"bwd/FC2+ReLU":           {70.8, 0, 120},
	"bwd/FC1+ReLU":           {1.05, 0, 29.7},
	"bwd/CONV5+ReLU+Maxpool": {3.02, 7.70, 7.87},
	"bwd/CONV4+ReLU":         {0.602, 26.2, 0.233},
	"bwd/CONV3+ReLU":         {20.6, 26.2, 20.9},
	"bwd/CONV2+ReLU+Maxpool": {54.4, 70.4, 180},
	"bwd/CONV1+ReLU+Maxpool": {1.91, 0, 28.6},
	"bwd/total":              {6.27, 37.3, 36.1},
}

// checkPaper holds one modeled quantity within tol percent of the paper's,
// and tol within 1.1x of the error achieved.
func checkPaper(t *testing.T, what string, got, paper, tol float64) {
	t.Helper()
	off := 100 * math.Abs(got-paper) / paper
	switch {
	case off > tol:
		t.Errorf("%s %.4g vs paper %.4g: off by %.3g%%, held at %.3g%%", what, got, paper, off, tol)
	case tol > 1.1*off:
		t.Errorf("%s %.4g vs paper %.4g: off by %.3g%% only, held at %.3g%%: tighten the bound", what, got, paper, off, tol)
	}
}

// TestPaperRowsAtAchievedError holds the analytical model to every printed
// row of Fig. 12(a)/(b) and their totals, to the conv forward subtotal, and
// to Fig. 13(b)'s L4 latency and energy cuts (84.2 % / 82.6 % here, 79.4 /
// 83.45 in the paper).
func TestPaperRowsAtAchievedError(t *testing.T) {
	m := NewModel()
	type row struct {
		name  string
		got   LayerCost
		paper PaperRow
	}
	var rows []row
	fwd, bwd := m.ForwardTable(), m.BackwardTable(nn.E2E)
	for i, r := range fwd {
		rows = append(rows, row{"fwd/" + r.Layer, r, PaperForwardTable[i]})
	}
	rows = append(rows, row{"fwd/total", TableTotals(fwd), PaperForwardTotal})
	for i, r := range bwd {
		rows = append(rows, row{"bwd/" + r.Layer, r, PaperBackwardTable[i]})
	}
	rows = append(rows, row{"bwd/total", TableTotals(bwd), PaperBackwardTotal})
	if len(rows) != len(fig12Tol) {
		t.Fatalf("%d modeled rows, %d bounds", len(rows), len(fig12Tol))
	}
	for _, r := range rows {
		if r.got.Layer != r.paper.Layer {
			t.Fatalf("modeled %s sits on the paper's %s row", r.got.Layer, r.paper.Layer)
		}
		tol, ok := fig12Tol[r.name]
		if !ok {
			t.Fatalf("row %s has no bound", r.name)
		}
		t.Run(r.name, func(t *testing.T) {
			checkPaper(t, "latency ms", r.got.LatencyMS, r.paper.LatencyMS, tol.lat)
			checkPaper(t, "active PEs", float64(r.got.ActivePEs), float64(r.paper.ActivePEs), tol.pe)
			checkPaper(t, "energy mJ", r.got.EnergyMJ, r.paper.EnergyMJ, tol.energy)
		})
	}

	t.Run("fwd/conv-subtotal", func(t *testing.T) {
		var got, paper float64
		for i := range m.Arch.Convs {
			got += fwd[i].LatencyMS
			paper += PaperForwardTable[i].LatencyMS
		}
		checkPaper(t, "latency ms", got, paper, 13.1)
	})
	t.Run("L4-cuts", func(t *testing.T) {
		lat, en := m.Reductions(nn.L4)
		checkPaper(t, "latency cut %", lat, PaperHeadline.LatencyReductionPct, 6.00)
		checkPaper(t, "energy cut %", en, PaperHeadline.EnergyReductionPct, 0.966)
	})
}

// TestBackwardE2ETotalNearPaper holds the model's E2E backward-latency
// accessor to the paper's total, at the bwd/total row's bound.
func TestBackwardE2ETotalNearPaper(t *testing.T) {
	m := NewModel()
	checkPaper(t, "E2E backward total ms", m.BackwardLatencyMS(nn.E2E),
		PaperBackwardTotal.LatencyMS, fig12Tol["bwd/total"].lat)
}

// TestEnergyTotalsWithinBand holds the model's forward and E2E backward
// energy accessors to the paper's totals, at the fwd/total and bwd/total
// rows' bounds.
func TestEnergyTotalsWithinBand(t *testing.T) {
	m := NewModel()
	checkPaper(t, "forward energy mJ", m.ForwardEnergyMJ(),
		PaperForwardTotal.EnergyMJ, fig12Tol["fwd/total"].energy)
	checkPaper(t, "E2E backward energy mJ", m.BackwardEnergyMJ(nn.E2E),
		PaperBackwardTotal.EnergyMJ, fig12Tol["bwd/total"].energy)
}

// TestWriteLatencyAblation sweeps the STT-MRAM write latency over hwsim
// -sweep writelat's values. E2E writes every weight back to the stack, so its
// forward+backward latency must rise strictly with the write latency; L4
// trains only SRAM-resident layers and never writes NVM, so its latency must
// not move at all.
func TestWriteLatencyAblation(t *testing.T) {
	var prevE2E, l4At10 float64
	for i, wl := range []float64{10, 30, 50, 100, 200, 500} {
		m := NewModel()
		m.MRAM.WriteLatencyNS = wl
		e2e := m.ForwardLatencyMS() + m.BackwardLatencyMS(nn.E2E)
		l4 := m.ForwardLatencyMS() + m.BackwardLatencyMS(nn.L4)
		if i == 0 {
			l4At10 = l4
		} else if e2e <= prevE2E {
			t.Errorf("write %v ns: E2E fwd+bwd %.3f ms, not above %.3f at the previous step", wl, e2e, prevE2E)
		}
		if l4 != l4At10 {
			t.Errorf("write %v ns: L4 fwd+bwd %.6f ms, want %.6f as at 10 ns (L4 never writes NVM)", wl, l4, l4At10)
		}
		prevE2E = e2e
	}
}
