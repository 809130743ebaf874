package hw

import "dronerl/internal/nn"

// ForwardTable regenerates Fig. 12(a): per-layer latency, active PEs,
// power and energy for one forward propagation (inference) of the network,
// in the paper's row order (CONV1..CONV5, FC1..FC5).
func (m *Model) ForwardTable() []LayerCost {
	var rows []LayerCost
	for i := range m.Arch.Convs {
		rows = append(rows, m.ConvForwardCost(i))
	}
	for i := range m.Arch.FCs {
		rows = append(rows, m.FCForwardCost(i))
	}
	return rows
}

// BackwardTable regenerates Fig. 12(b): per-layer backpropagation costs in
// backward order (FC5 up to FC1, then CONV5 down to CONV1), restricted to
// the layers the topology trains. For the paper's table pass nn.E2E.
func (m *Model) BackwardTable(cfg nn.Config) []LayerCost {
	var rows []LayerCost
	k := cfg.TrainedFCLayers()
	if cfg == nn.E2E {
		k = len(m.Arch.FCs)
	}
	for i := len(m.Arch.FCs) - 1; i >= len(m.Arch.FCs)-k; i-- {
		rows = append(rows, m.FCBackwardCost(i, cfg))
	}
	if cfg == nn.E2E {
		for i := len(m.Arch.Convs) - 1; i >= 0; i-- {
			rows = append(rows, m.ConvBackwardCost(i, cfg))
		}
	}
	return rows
}

// TableTotals sums a cost table the way the paper's "total" row does:
// latencies and energies add; active PEs and power are latency-weighted
// averages.
func TableTotals(rows []LayerCost) LayerCost {
	var t LayerCost
	t.Layer = "total"
	var peWeighted, powerWeighted float64
	for _, r := range rows {
		t.LatencyMS += r.LatencyMS
		t.EnergyMJ += r.EnergyMJ
		peWeighted += float64(float64(r.ActivePEs) * r.LatencyMS)
		powerWeighted += float64(r.PowerMW * r.LatencyMS)
		t.NVMWrite = t.NVMWrite || r.NVMWrite
	}
	if t.LatencyMS > 0 {
		t.ActivePEs = int(peWeighted / t.LatencyMS)
		t.PowerMW = powerWeighted / t.LatencyMS
	}
	return t
}

// ForwardLatencyMS returns the total forward (inference) latency.
func (m *Model) ForwardLatencyMS() float64 {
	return TableTotals(m.ForwardTable()).LatencyMS
}

// BackwardLatencyMS returns the total backward latency under cfg.
func (m *Model) BackwardLatencyMS(cfg nn.Config) float64 {
	return TableTotals(m.BackwardTable(cfg)).LatencyMS
}

// ForwardEnergyMJ returns the total forward energy.
func (m *Model) ForwardEnergyMJ() float64 {
	return TableTotals(m.ForwardTable()).EnergyMJ
}

// BackwardEnergyMJ returns the total backward energy under cfg.
func (m *Model) BackwardEnergyMJ(cfg nn.Config) float64 {
	return TableTotals(m.BackwardTable(cfg)).EnergyMJ
}

// PaperRow is a published row of Fig. 12 used for model validation.
type PaperRow struct {
	Layer     string
	LatencyMS float64
	ActivePEs int
	PowerMW   float64
	EnergyMJ  float64
}

// PaperForwardTable is Fig. 12(a) as printed.
var PaperForwardTable = []PaperRow{
	{"CONV1+ReLU+Maxpool", 0.245, 704, 4134, 1.012},
	{"CONV2+ReLU+Maxpool", 1.087, 960, 5571, 6.056},
	{"CONV3+ReLU", 0.804, 960, 5674, 4.564},
	{"CONV4+ReLU", 1.28, 960, 5692, 7.289},
	{"CONV5+ReLU+Maxpool", 1.116, 960, 5672, 6.33},
	{"FC1+ReLU", 5.365, 1024, 6799, 36.48},
	{"FC2+ReLU", 1.189, 1024, 6800, 8.091},
	{"FC3+ReLU", 0.562, 1024, 6408, 3.603},
	{"FC4+ReLU", 0.28, 1024, 6410, 1.8},
	{"FC5+ReLU", 0.0005, 160, 1910, 0.0009},
}

// PaperForwardTotal is the Fig. 12(a) "total" row.
var PaperForwardTotal = PaperRow{"total", 11.9285, 880, 5507, 75.2259}

// PaperBackwardTable is Fig. 12(b) as printed (E2E baseline).
var PaperBackwardTable = []PaperRow{
	{"FC5+ReLU", 0.0027, 160, 2094, 0.006},
	{"FC4+ReLU", 0.594, 1024, 6548, 3.89},
	{"FC3+ReLU", 1.182, 1024, 6162, 7.284},
	{"FC2+ReLU", 3.839, 1024, 5390, 20.69},
	{"FC1+ReLU", 29.19, 1024, 5390, 157.3},
	{"CONV5+ReLU+Maxpool", 4.661, 208, 1888, 8.804},
	{"CONV4+ReLU", 5.579, 260, 2112, 11.78},
	{"CONV3+ReLU", 4.71, 260, 2112, 9.947},
	{"CONV2+ReLU+Maxpool", 5.518, 432, 2850, 15.73},
	{"CONV1+ReLU+Maxpool", 38.95, 1024, 5390, 209.9},
}

// PaperBackwardTotal is the Fig. 12(b) "total" row.
var PaperBackwardTotal = PaperRow{"total", 94.2257, 644, 3993.6, 445.331}

// PaperHeadline records the abstract's claimed reductions of the proposed
// system vs the E2E baseline.
var PaperHeadline = struct {
	LatencyReductionPct float64
	EnergyReductionPct  float64
	FPSAtBatch4L4       float64
	FPSAtBatch4E2E      float64
}{79.4, 83.45, 15, 3}
