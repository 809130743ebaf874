package systolic

import (
	"math"
	"testing"

	"dronerl/internal/nn"
)

// paperConvShapes returns the five conv layers of the modified AlexNet.
func paperConvShapes() []ConvShape {
	return []ConvShape{
		{Name: "CONV1", InC: 3, OutC: 96, K: 11, Stride: 4, Pad: 0, InH: 227, InW: 227},
		{Name: "CONV2", InC: 96, OutC: 256, K: 5, Stride: 1, Pad: 2, InH: 27, InW: 27},
		{Name: "CONV3", InC: 256, OutC: 384, K: 3, Stride: 1, Pad: 1, InH: 13, InW: 13},
		{Name: "CONV4", InC: 384, OutC: 384, K: 3, Stride: 1, Pad: 1, InH: 13, InW: 13},
		{Name: "CONV5", InC: 384, OutC: 256, K: 3, Stride: 1, Pad: 1, InH: 13, InW: 13},
	}
}

func TestDefaultArrayMatchesFig4b(t *testing.T) {
	a := DefaultArray()
	if a.PEs() != 1024 {
		t.Errorf("PEs = %d, want 1024", a.PEs())
	}
	if a.Rows != 32 || a.Cols != 32 {
		t.Error("array must be 32x32")
	}
	if a.MACsPerPE != 8 || a.ComparatorsPerPE != 8 {
		t.Error("each PE has 8 MACs and 8 comparators")
	}
	if a.RFBytes != 4608 {
		t.Errorf("RF = %d bytes, want 4.5 KB", a.RFBytes)
	}
	if a.GBBroadcastBits != 4096 || a.LinkBits != 128 {
		t.Error("interconnect widths must match Fig. 4(b)")
	}
	if a.ClockGHz != 1 || a.WordBits != 16 {
		t.Error("clock/precision must match Fig. 4(b)")
	}
	if a.RFWords() != 2304 {
		t.Errorf("RF words = %d", a.RFWords())
	}
}

func TestPlanConvTypesMatchFig6(t *testing.T) {
	a := DefaultArray()
	shapes := paperConvShapes()
	wantType := []MappingType{TypeI, TypeII, TypeIII, TypeIII, TypeIII}
	for i, s := range shapes {
		m := PlanConv(a, s)
		if m.Type != wantType[i] {
			t.Errorf("%s: mapping %v, want %v", s.Name, m.Type, wantType[i])
		}
	}
}

func TestPlanConvCONV1(t *testing.T) {
	// Fig. 6(a): 2 segments of 11x32 PEs, 24 output channels each.
	m := PlanConv(DefaultArray(), paperConvShapes()[0])
	if m.Segments != 2 || m.SegRows != 11 || m.SegCols != 32 {
		t.Errorf("CONV1 mapping %+v", m)
	}
	if m.OCPerSeg != 24 {
		t.Errorf("CONV1 OCPerSeg = %d, want 24", m.OCPerSeg)
	}
	if m.ActivePEs != 704 {
		t.Errorf("CONV1 active PEs = %d, want 704 (Fig. 12)", m.ActivePEs)
	}
	// 96 output channels / 48 per pass = 2 rounds; 55 rows / 32 = 2.
	if m.OCRounds != 2 || m.RowRounds != 2 {
		t.Errorf("CONV1 rounds = %d oc, %d row", m.OCRounds, m.RowRounds)
	}
}

func TestPlanConvCONV2(t *testing.T) {
	// Fig. 6(b): 6 segments of 5x27, input channels split in two,
	// 14 output channels per segment.
	m := PlanConv(DefaultArray(), paperConvShapes()[1])
	if m.Segments != 6 || m.SegRows != 5 || m.SegCols != 27 {
		t.Errorf("CONV2 mapping %+v", m)
	}
	if m.InChSplit != 2 {
		t.Errorf("CONV2 split = %d, want 2", m.InChSplit)
	}
	if m.OCPerSeg != 14 {
		t.Errorf("CONV2 OCPerSeg = %d, want 14", m.OCPerSeg)
	}
	if m.ActivePEs != 960 {
		t.Errorf("CONV2 active PEs = %d, want 960 (Fig. 12)", m.ActivePEs)
	}
}

func TestPlanConvCONV3(t *testing.T) {
	// Fig. 6(c): 2 sets of 10 segments of 3x13, 19 output channels per
	// segment, input channels split across the sets.
	m := PlanConv(DefaultArray(), paperConvShapes()[2])
	if m.Sets != 2 || m.Segments != 10 || m.SegRows != 3 || m.SegCols != 13 {
		t.Errorf("CONV3 mapping %+v", m)
	}
	if m.OCPerSeg != 19 {
		t.Errorf("CONV3 OCPerSeg = %d, want 19", m.OCPerSeg)
	}
	if m.ActivePEs != 960 {
		t.Errorf("CONV3 active PEs = %d, want 960", m.ActivePEs)
	}
	if m.SplitRounds != 1 {
		t.Errorf("CONV3 split rounds = %d, want 1 (sets cover both halves)", m.SplitRounds)
	}
}

func TestConvShapeArithmetic(t *testing.T) {
	s := paperConvShapes()[0]
	if s.OutH() != 55 || s.OutW() != 55 {
		t.Errorf("CONV1 out = %dx%d, want 55x55", s.OutH(), s.OutW())
	}
	if s.WeightWords() != 34848 { // 96*3*11*11, bias not included
		t.Errorf("CONV1 weight words = %d", s.WeightWords())
	}
	if s.MACs() != int64(55*55)*96*363 {
		t.Errorf("CONV1 MACs = %d", s.MACs())
	}
}

// specConvShapes derives the conv layers of an architecture with their live
// input sizes, the way internal/hw feeds them to the planner.
func specConvShapes(spec nn.ArchSpec) []ConvShape {
	var out []ConvShape
	h, inC := spec.InputH, spec.InputC
	for i, c := range spec.Convs {
		out = append(out, ConvShape{
			Name: spec.Name + "/" + c.Name, InC: inC, OutC: c.OutC,
			K: c.K, Stride: c.Stride, Pad: c.Pad, InH: h, InW: h,
		})
		_, h = spec.ConvOut(i)
		inC = c.OutC
	}
	return out
}

// walkShapes are the shapes the pass walk covers: scaled-down instances
// triggering each mapping type, a strided and an unpadded layer, and the
// conv layers of the scaled NavNet and of the paper's modified AlexNet.
func walkShapes() []ConvShape {
	shapes := []ConvShape{
		{Name: "t1", InC: 3, OutC: 7, K: 11, Stride: 4, Pad: 0, InH: 59, InW: 59},
		{Name: "t2", InC: 96, OutC: 9, K: 5, Stride: 1, Pad: 2, InH: 27, InW: 27},
		{Name: "t3", InC: 256, OutC: 8, K: 3, Stride: 1, Pad: 1, InH: 13, InW: 13},
		{Name: "stride2", InC: 4, OutC: 5, K: 3, Stride: 2, Pad: 1, InH: 16, InW: 16},
		{Name: "nopad", InC: 2, OutC: 3, K: 3, Stride: 1, Pad: 0, InH: 10, InW: 10},
	}
	shapes = append(shapes, specConvShapes(nn.NavNetSpec())...)
	return append(shapes, specConvShapes(nn.ModifiedAlexNetSpec())...)
}

// walkPasses steps PlanConv's pass structure — OCRounds x RowRounds x
// SplitRounds x Sets x Segments x OCPerSeg x SegCols x K, the loop nest the
// row-stationary dataflow runs — and calls visit once per PE row
// convolution: filter row ky of output channel oc against output row oy,
// over the input-channel slice [icBase, icEnd).
func walkPasses(m ConvMapping, s ConvShape, visit func(oc, oy, ky, icBase, icEnd int)) {
	ocPerPass := m.OCPerSeg * m.Segments
	if ocPerPass > s.OutC {
		ocPerPass = s.OutC
	}
	slice := s.InC / m.InChSplit
	if slice < 1 {
		slice = 1
	}
	for ocRound := 0; ocRound < m.OCRounds; ocRound++ {
		ocBase := ocRound * ocPerPass
		for rowRound := 0; rowRound < m.RowRounds; rowRound++ {
			for splitRound := 0; splitRound < m.SplitRounds; splitRound++ {
				for set := 0; set < m.Sets; set++ {
					icBase := (splitRound*m.Sets + set) * slice
					if icBase >= s.InC {
						continue
					}
					icEnd := icBase + slice
					if m.InChSplit == 1 || icEnd > s.InC {
						icEnd = s.InC
					}
					for seg := 0; seg < m.Segments; seg++ {
						for oci := 0; oci < m.OCPerSeg; oci++ {
							oc := ocBase + seg*m.OCPerSeg + oci
							if oc >= s.OutC || oc >= ocBase+ocPerPass {
								break
							}
							for col := 0; col < m.SegCols; col++ {
								oy := rowRound*m.SegCols + col
								if oy >= s.OutH() {
									break
								}
								for ky := 0; ky < s.K; ky++ {
									visit(oc, oy, ky, icBase, icEnd)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMappedConvCoversEveryRow is the dataflow-correctness property of the
// planner: the passes PlanConv lays out visit every (output channel, output
// row, input channel, filter row) of the convolution exactly once, so the
// mapped dataflow computes the whole layer and nothing twice.
func TestMappedConvCoversEveryRow(t *testing.T) {
	a := DefaultArray()
	for _, s := range walkShapes() {
		m := PlanConv(a, s)
		outH := s.OutH()
		seen := make([]uint8, s.OutC*outH*s.InC*s.K)
		walkPasses(m, s, func(oc, oy, ky, icBase, icEnd int) {
			for ic := icBase; ic < icEnd; ic++ {
				seen[((oc*outH+oy)*s.InC+ic)*s.K+ky]++
			}
		})
		for i, n := range seen {
			if n != 1 {
				ky := i % s.K
				ic := i / s.K % s.InC
				oy := i / (s.K * s.InC) % outH
				oc := i / (s.K * s.InC * outH)
				t.Fatalf("%s (%v): (oc %d, oy %d, ic %d, ky %d) visited %d times, want once",
					s.Name, m.Type, oc, oy, ic, ky, n)
			}
		}
	}
}

// TestConvCountsAllMACs: the row convolutions of the planned passes issue
// exactly the layer's multiply-accumulates — each one a K-tap filter row
// slid across OutW outputs for every channel of its slice, padding taps
// issued against zeros — and that is the count SimulateConv prices.
func TestConvCountsAllMACs(t *testing.T) {
	arr := New(DefaultArray())
	for _, s := range walkShapes() {
		var macs int64
		walkPasses(PlanConv(arr.Cfg, s), s, func(oc, oy, ky, icBase, icEnd int) {
			macs += int64(s.OutW()) * int64(s.K) * int64(icEnd-icBase)
		})
		if macs != s.MACs() {
			t.Errorf("%s: passes issue %d MACs, the layer has %d", s.Name, macs, s.MACs())
		}
		if sim := arr.SimulateConv(s).MACs; sim != macs {
			t.Errorf("%s: SimulateConv prices %d MACs, the passes issue %d", s.Name, sim, macs)
		}
	}
}

func TestFCActivePEs(t *testing.T) {
	a := DefaultArray()
	// Fig. 12: FC1-FC4 use all 1024 PEs, FC5 (5 outputs) only 160.
	if got := FCActivePEs(a, 4096); got != 1024 {
		t.Errorf("FC1 active = %d, want 1024", got)
	}
	if got := FCActivePEs(a, 5); got != 160 {
		t.Errorf("FC5 active = %d, want 160", got)
	}
}

func TestTrafficScalesWithRounds(t *testing.T) {
	a := DefaultArray()
	s := paperConvShapes()[0]
	m := PlanConv(a, s)
	tr := m.Traffic(s)
	if tr.WeightWords != s.WeightWords()*int64(m.RowRounds) {
		t.Errorf("weight traffic %d, want weights x rowRounds", tr.WeightWords)
	}
	if tr.InputWords <= 0 || tr.OutputWords != s.OutputWords() {
		t.Errorf("traffic %+v implausible", tr)
	}
}

func TestPeakTOPS(t *testing.T) {
	a := DefaultArray()
	// 1024 PEs x 8 MACs x 2 ops x 1 GHz = 16.4 TOPS.
	if math.Abs(a.PeakTOPS()-16.384) > 1e-9 {
		t.Errorf("peak = %v TOPS", a.PeakTOPS())
	}
}

func TestPlanConvRejectsTooTallFilter(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for filter taller than the array")
		}
	}()
	PlanConv(DefaultArray(), ConvShape{InC: 1, OutC: 1, K: 40, Stride: 1, InH: 64, InW: 64})
}
