package hw

import (
	"bytes"
	"maps"
	"math"
	"strings"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
)

func TestBackwardTableOrderMatchesPaper(t *testing.T) {
	m := NewModel()
	rows := m.BackwardTable(nn.E2E)
	want := []string{
		"FC5+ReLU", "FC4+ReLU", "FC3+ReLU", "FC2+ReLU", "FC1+ReLU",
		"CONV5+ReLU+Maxpool", "CONV4+ReLU", "CONV3+ReLU",
		"CONV2+ReLU+Maxpool", "CONV1+ReLU+Maxpool",
	}
	if len(rows) != len(want) {
		t.Fatalf("%d backward rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Layer != want[i] {
			t.Errorf("row %d = %s, want %s", i, r.Layer, want[i])
		}
	}
}

func TestNVMWriteFlagsMatchFig12b(t *testing.T) {
	// Fig. 5 puts FC3-FC5 in the buffer, so under E2E only FC1, FC2 and
	// the conv layers write the stack.
	m := NewModel()
	for _, r := range m.BackwardTable(nn.E2E) {
		wantFlag := true
		switch r.Layer {
		case "FC3+ReLU", "FC4+ReLU", "FC5+ReLU":
			wantFlag = false
		}
		if r.NVMWrite != wantFlag {
			t.Errorf("%s NVM write = %v, want %v", r.Layer, r.NVMWrite, wantFlag)
		}
	}
}

func TestLiConfigsNeverWriteNVM(t *testing.T) {
	// The entire point of the co-design: online training under L2/L3/L4
	// touches only the SRAM.
	m := NewModel()
	for _, cfg := range []nn.Config{nn.L2, nn.L3, nn.L4} {
		for _, r := range m.BackwardTable(cfg) {
			if r.NVMWrite {
				t.Errorf("%v: layer %s writes NVM", cfg, r.Layer)
			}
		}
	}
}

func TestBackwardRowCounts(t *testing.T) {
	m := NewModel()
	counts := map[nn.Config]int{nn.L2: 2, nn.L3: 3, nn.L4: 4, nn.E2E: 10}
	for cfg, want := range counts {
		if got := len(m.BackwardTable(cfg)); got != want {
			t.Errorf("%v: %d backward rows, want %d", cfg, got, want)
		}
	}
}

func TestPowerModelMatchesPaperEndpoints(t *testing.T) {
	// The affine power model is fitted to the paper's FC1 and FC5 rows.
	m := NewModel()
	if got := m.PowerMW(1024); math.Abs(got-6799) > 100 {
		t.Errorf("P(1024) = %.0f mW, want ~6799", got)
	}
	if got := m.PowerMW(160); math.Abs(got-1910) > 100 {
		t.Errorf("P(160) = %.0f mW, want ~1910", got)
	}
}

func TestReductionOrdering(t *testing.T) {
	// Training less must cost less: latency(L2) < latency(L3) <
	// latency(L4) < latency(E2E), and same for energy.
	m := NewModel()
	s := m.SummaryTable()
	if len(s) != 4 {
		t.Fatalf("summary rows = %d", len(s))
	}
	for i := 1; i < 4; i++ {
		if s[i].LatencyMS <= s[i-1].LatencyMS {
			t.Errorf("latency not increasing: %v=%.2f <= %v=%.2f",
				s[i].Config, s[i].LatencyMS, s[i-1].Config, s[i-1].LatencyMS)
		}
		if s[i].EnergyMJ <= s[i-1].EnergyMJ {
			t.Errorf("energy not increasing: %v vs %v", s[i].Config, s[i-1].Config)
		}
	}
}

func TestFPSShapeMatchesFig13a(t *testing.T) {
	m := NewModel()
	pts := m.FPSTable()
	if len(pts) != 12 {
		t.Fatalf("%d FPS points, want 12 (4 configs x 3 batches)", len(pts))
	}
	fps := func(cfg nn.Config, batch int) float64 {
		for _, p := range pts {
			if p.Config == cfg && p.Batch == batch {
				return p.FPS
			}
		}
		t.Fatalf("missing point %v/%d", cfg, batch)
		return 0
	}
	// Ordering at batch 4: L2 > L3 > L4 >> E2E.
	if !(fps(nn.L2, 4) > fps(nn.L3, 4) && fps(nn.L3, 4) > fps(nn.L4, 4) && fps(nn.L4, 4) > fps(nn.E2E, 4)) {
		t.Errorf("FPS ordering violated: L2=%.1f L3=%.1f L4=%.1f E2E=%.1f",
			fps(nn.L2, 4), fps(nn.L3, 4), fps(nn.L4, 4), fps(nn.E2E, 4))
	}
	// The paper's central claim: L4 sustains ~5x the E2E frame rate
	// (15 vs 3 fps). Require at least 3x.
	gap := fps(nn.L4, 4) / fps(nn.E2E, 4)
	if gap < 3 {
		t.Errorf("L4/E2E FPS gap %.1fx, want >= 3x (paper 5x)", gap)
	}
	// FPS must not decrease with batch (update amortization).
	for _, cfg := range nn.Configs {
		if fps(cfg, 16) < fps(cfg, 4)-1e-9 {
			t.Errorf("%v: FPS decreases with batch", cfg)
		}
	}
}

func TestVelocityClaim(t *testing.T) {
	// ">3X increase in the velocity of the drone" from the FPS gap,
	// via v = fps x d_min (Fig. 1).
	m := NewModel()
	vL4 := m.MaxVelocity(nn.L4, 4, 0.7)
	vE2E := m.MaxVelocity(nn.E2E, 4, 0.7)
	if vL4/vE2E < 3 {
		t.Errorf("velocity gain %.2fx, want > 3x", vL4/vE2E)
	}
}

func TestMinFPSTableMatchesFig1(t *testing.T) {
	rows := MinFPSTable(env.Fig1DMin)
	if len(rows) != 24 {
		t.Fatalf("%d rows, want 24 (6 envs x 4 speeds)", len(rows))
	}
	// Spot-check the printed values of Fig. 1(c).
	want := map[[2]string]float64{}
	_ = want
	check := func(envName string, v, fps float64) {
		for _, r := range rows {
			if r.Env == envName && r.Velocity == v {
				if math.Abs(r.MinFPS-fps) > 0.01 {
					t.Errorf("%s @%v m/s: %.3f fps, want %.3f", envName, v, r.MinFPS, fps)
				}
				return
			}
		}
		t.Errorf("missing row %s @%v", envName, v)
	}
	check("Indoor 1", 2.5, 3.571)
	check("Indoor 1", 10, 14.28)
	check("Indoor 2", 5, 5.0)
	check("Indoor 3", 7.5, 5.769)
	check("Outdoor 1", 10, 3.333)
	check("Outdoor 2", 7.5, 1.875)
	check("Outdoor 3", 10, 2.0)
}

func TestMemoryPlanL3MatchesFig5(t *testing.T) {
	// The flagship described in Section III.D: FC3+FC4+FC5 weights
	// (12.6 MB) + gradient sums (12.6 MB) + 4.2 MB scratch = 29.4 MB
	// SRAM; conv+FC1+FC2 = ~100 MB in the stack.
	m := NewModel()
	p := m.PlanMemory(nn.L3)
	if math.Abs(p.SRAMWeightsMB-12.6) > 0.1 {
		t.Errorf("SRAM weights %.2f MB, want ~12.6", p.SRAMWeightsMB)
	}
	if math.Abs(p.SRAMGradientsMB-12.6) > 0.1 {
		t.Errorf("SRAM gradients %.2f MB, want ~12.6", p.SRAMGradientsMB)
	}
	if math.Abs(p.SRAMTotalMB-29.4) > 0.2 {
		t.Errorf("SRAM total %.2f MB, want ~29.4", p.SRAMTotalMB)
	}
	if math.Abs(p.MRAMTotalMB-99.78) > 0.5 {
		t.Errorf("MRAM total %.2f MB, want ~99.78 (~100 MB)", p.MRAMTotalMB)
	}
	if !p.FitsSRAM {
		t.Error("the L3 plan must fit the 30 MB buffer")
	}
}

func TestMemoryPlanStoresByConfig(t *testing.T) {
	m := NewModel()
	p := m.PlanMemory(nn.L2)
	stores := map[string]string{}
	for _, e := range p.Entries {
		stores[e.Layer] = e.Store
	}
	if stores["FC4"] != "SRAM" || stores["FC5"] != "SRAM" {
		t.Error("L2 must keep FC4/FC5 in SRAM")
	}
	if stores["FC3"] != "STT-MRAM" || stores["FC1"] != "STT-MRAM" || stores["CONV1"] != "STT-MRAM" {
		t.Error("L2 must keep everything else in the stack")
	}
	// L4's plan (26% of weights, 29.38 MB + gradients) exceeds 30 MB:
	// the paper sizes a larger buffer for that architecture variant.
	p4 := m.PlanMemory(nn.L4)
	if p4.SRAMTotalMB <= p.SRAMTotalMB {
		t.Error("L4 must need more SRAM than L2")
	}
	if p4.FitsSRAM {
		t.Error("L4 plan must exceed the 30 MB flagship buffer (needs ~63 MB)")
	}
}

func TestParamsMatchFig4b(t *testing.T) {
	m := NewModel()
	p := m.Params()
	if p.PEs != 1024 || p.ArrayRows != 32 || p.ArrayCols != 32 {
		t.Error("PE array must be 32x32=1024")
	}
	if p.GlobalBufferMB != 30 || math.Abs(p.ScratchpadMB-4.2) > 1e-9 {
		t.Error("buffer sizes must match Fig. 4(b)")
	}
	if p.RFPerPEKB != 4.5 {
		t.Errorf("RF = %.1f KB, want 4.5", p.RFPerPEKB)
	}
	if p.VoltageV != 0.8 || p.ClockGHz != 1 {
		t.Error("operating point must be 0.8 V / 1 GHz")
	}
	if p.PeakTOPSperW != 1.5 {
		t.Error("peak efficiency must be 1.5 TOPS/W")
	}
	if p.Precision != "16 bit fixed-point" {
		t.Errorf("precision %q", p.Precision)
	}
	if p.PEBandwidthBit != 128 || p.HBMIOs != 1024 || p.HBMGbpsPerIO != 2 {
		t.Error("interconnect parameters must match Fig. 4")
	}
}

func TestEnergyPerFrameReduction(t *testing.T) {
	// Abstract: "83.4% lower energy per image frame". Band-check the
	// full per-frame energy reduction of L4 vs E2E.
	m := NewModel()
	red := 100 * (1 - m.EnergyPerFrameMJ(nn.L4)/m.EnergyPerFrameMJ(nn.E2E))
	if red < 70 || red > 90 {
		t.Errorf("per-frame energy reduction %.1f%%, want 70-90%% (paper 83.4%%)", red)
	}
}

func TestTableTotalsAggregation(t *testing.T) {
	rows := []LayerCost{
		{Layer: "a", LatencyMS: 1, ActivePEs: 100, PowerMW: 1000, EnergyMJ: 1},
		{Layer: "b", LatencyMS: 3, ActivePEs: 200, PowerMW: 2000, EnergyMJ: 6},
	}
	tot := TableTotals(rows)
	if tot.LatencyMS != 4 || tot.EnergyMJ != 7 {
		t.Errorf("totals %+v", tot)
	}
	if tot.ActivePEs != 175 { // latency-weighted: (100*1+200*3)/4
		t.Errorf("weighted PEs = %d, want 175", tot.ActivePEs)
	}
	if tot.PowerMW != 1750 {
		t.Errorf("weighted power = %v, want 1750", tot.PowerMW)
	}
}

func TestIterationComposition(t *testing.T) {
	m := NewModel()
	it := m.Iteration(nn.L4, 4)
	if it.InferenceMS != it.TrainForwardMS {
		t.Error("inference and training forward must cost the same")
	}
	sum := it.InferenceMS + it.TrainForwardMS + it.TrainBackwardMS + it.UpdateMS
	if math.Abs(sum-it.TotalMS()) > 1e-12 {
		t.Error("TotalMS must be the component sum")
	}
	if it.FPS() <= 0 {
		t.Error("FPS must be positive")
	}
	// Larger batch, cheaper amortized update.
	it16 := m.Iteration(nn.L4, 16)
	if it16.UpdateMS > it.UpdateMS {
		t.Error("update cost must amortize with batch")
	}
}

func TestPaperReferenceTablesSane(t *testing.T) {
	// The embedded paper tables must internally sum to their totals
	// (guards transcription errors).
	var lat, en float64
	for _, r := range PaperForwardTable {
		lat += r.LatencyMS
		en += r.EnergyMJ
	}
	if math.Abs(lat-PaperForwardTotal.LatencyMS) > 0.01 {
		t.Errorf("Fig 12(a) latencies sum to %.4f, total row says %.4f", lat, PaperForwardTotal.LatencyMS)
	}
	if math.Abs(en-PaperForwardTotal.EnergyMJ) > 0.01 {
		t.Errorf("Fig 12(a) energies sum to %.4f, total row says %.4f", en, PaperForwardTotal.EnergyMJ)
	}
	lat, en = 0, 0
	for _, r := range PaperBackwardTable {
		lat += r.LatencyMS
		en += r.EnergyMJ
	}
	if math.Abs(lat-PaperBackwardTotal.LatencyMS) > 0.01 {
		t.Errorf("Fig 12(b) latencies sum to %.4f, total row says %.4f", lat, PaperBackwardTotal.LatencyMS)
	}
	if math.Abs(en-PaperBackwardTotal.EnergyMJ) > 0.2 {
		t.Errorf("Fig 12(b) energies sum to %.4f, total row says %.4f", en, PaperBackwardTotal.EnergyMJ)
	}
}

// TestPublishImageMatchesModeledTraffic holds the model to the bytes a
// publish really moves: the weight image of the tail PolicyBoard publishes
// for NavNet, each section assigned to the device its layer lives in
// (LayerInMRAM), carries exactly the words SnapshotPublishTraffic charges per
// device (Bits / WordBits). Both count weights and biases (in*out+out per
// layer); the image stores each word as a float32, the modeled chip as
// WordBits-bit fixed point.
func TestPublishImageMatchesModeledTraffic(t *testing.T) {
	spec := nn.NavNetSpec()
	m := NewModelFor(spec)
	for _, cfg := range []nn.Config{nn.L2, nn.L3, nn.L4, nn.E2E} {
		net := spec.Build()
		net.SetConfig(cfg)
		board := nn.NewPolicyBoard()
		board.Publish(net, spec.Name)
		tail, _ := board.Snapshot()
		var buf bytes.Buffer
		if err := tail.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		img, err := nn.DecodeImage(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		words := map[string]int64{}
		for i, name := range img.Names {
			layer, _, _ := strings.Cut(name, ".")
			dev := m.SRAM.Name
			if m.LayerInMRAM(layer, cfg) {
				dev = m.MRAM.Name
			}
			words[dev] += int64(len(img.Data[i]))
		}
		charged := map[string]int64{}
		for _, tr := range m.SnapshotPublishTraffic(cfg) {
			charged[tr.Device.Name] = tr.Bits / int64(m.array.WordBits)
		}
		if !maps.Equal(words, charged) {
			t.Errorf("%v: image words per device %v, model charges %v", cfg, words, charged)
		}
	}
}
