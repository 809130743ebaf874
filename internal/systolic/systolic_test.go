package systolic

import (
	"math"
	"math/rand"
	"testing"

	"dronerl/internal/tensor"
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

// TestMappedConvMatchesDirect is the core dataflow-correctness property:
// the row-stationary emulation must reproduce direct convolution exactly
// for every mapping type.
func TestMappedConvMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []ConvShape{
		// Scaled-down instances triggering each mapping type.
		{Name: "t1", InC: 3, OutC: 7, K: 11, Stride: 4, Pad: 0, InH: 59, InW: 59},
		{Name: "t2", InC: 96, OutC: 9, K: 5, Stride: 1, Pad: 2, InH: 27, InW: 27},
		{Name: "t3", InC: 256, OutC: 8, K: 3, Stride: 1, Pad: 1, InH: 13, InW: 13},
		{Name: "stride2", InC: 4, OutC: 5, K: 3, Stride: 2, Pad: 1, InH: 16, InW: 16},
		{Name: "nopad", InC: 2, OutC: 3, K: 3, Stride: 1, Pad: 0, InH: 10, InW: 10},
	}
	arr := New(DefaultArray())
	for _, s := range shapes {
		in := tensor.New(s.InC, s.InH, s.InW)
		in.RandN(rng, 1)
		w := tensor.New(s.OutC, s.InC, s.K, s.K)
		w.RandN(rng, 0.3)
		got := arr.Conv(in, w, s)
		want := DirectConv(in, w, s)
		if got.Len() != want.Len() {
			t.Fatalf("%s: size %d vs %d", s.Name, got.Len(), want.Len())
		}
		for i := range got.Data() {
			g, r := float64(got.Data()[i]), float64(want.Data()[i])
			if math.Abs(g-r) > 1e-3*(1+math.Abs(r)) {
				t.Fatalf("%s: output[%d] = %v, want %v", s.Name, i, g, r)
			}
		}
	}
}

func TestConvCountsAllMACs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := ConvShape{Name: "c", InC: 2, OutC: 3, K: 3, Stride: 1, Pad: 0, InH: 8, InW: 8}
	in := tensor.New(s.InC, s.InH, s.InW)
	in.RandN(rng, 1)
	w := tensor.New(s.OutC, s.InC, s.K, s.K)
	w.RandN(rng, 1)
	arr := New(DefaultArray())
	arr.Conv(in, w, s)
	if arr.Counters.MACs != s.MACs() {
		t.Errorf("emulation executed %d MACs, shape says %d", arr.Counters.MACs, s.MACs())
	}
	if arr.Counters.Passes == 0 || arr.Counters.RowConvs == 0 {
		t.Error("counters not tracking passes/row convolutions")
	}
}

func TestFCForwardMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := tensor.New(40, 70)
	w.RandN(rng, 1)
	x := make([]float32, 70)
	b := make([]float32, 40)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	arr := New(DefaultArray())
	got := arr.FCForward(w, x, b)
	want := tensor.MatMul(w, tensor.FromSlice(x, 70, 1)).Data()
	for i := range want {
		want[i] += b[i]
	}
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-3 {
			t.Fatalf("FCForward[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if arr.Counters.MACs == 0 || arr.Counters.GBReadWords == 0 {
		t.Error("FCForward counters empty")
	}
}

func TestFCTransposedMatchesMatVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	w := tensor.New(50, 33)
	w.RandN(rng, 1)
	g := make([]float32, 50)
	for i := range g {
		g[i] = float32(rng.NormFloat64())
	}
	arr := New(DefaultArray())
	got := arr.FCTransposed(w, g)
	// Reference: W^T g as a (33 x 1) transposed GEMM.
	wantT := tensor.New(33, 1)
	tensor.MatMulTNAccum(wantT, w, tensor.FromSlice(g, 50, 1))
	want := wantT.Data()
	for i := range want {
		if math.Abs(float64(got[i]-want[i])) > 1e-3 {
			t.Fatalf("FCTransposed[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFCAdjointProperty(t *testing.T) {
	// <FCForward(W, x, nil), g> == <x, FCTransposed(W, g)>: the Fig. 7
	// and Fig. 8 dataflows are exact adjoints, which is what makes
	// in-place backpropagation on the resident tiles legal.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		out, in := 1+rng.Intn(64), 1+rng.Intn(64)
		w := tensor.New(out, in)
		w.RandN(rng, 1)
		x := make([]float32, in)
		g := make([]float32, out)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range g {
			g[i] = float32(rng.NormFloat64())
		}
		arr := New(DefaultArray())
		y := arr.FCForward(w, x, nil)
		dx := arr.FCTransposed(w, g)
		var lhs, rhs float64
		for i := range y {
			lhs += float64(y[i]) * float64(g[i])
		}
		for i := range dx {
			rhs += float64(dx[i]) * float64(x[i])
		}
		if math.Abs(lhs-rhs) > 1e-2*(1+math.Abs(lhs)) {
			t.Fatalf("adjoint violated: %v vs %v", lhs, rhs)
		}
	}
}

func TestFCOuterAccumulates(t *testing.T) {
	arr := New(DefaultArray())
	dw := tensor.New(2, 3)
	arr.FCOuter(dw, []float32{1, 2}, []float32{3, 4, 5})
	arr.FCOuter(dw, []float32{1, 0}, []float32{1, 1, 1})
	want := []float32{4, 5, 6, 6, 8, 10}
	for i, v := range want {
		if dw.Data()[i] != v {
			t.Fatalf("dW[%d] = %v, want %v", i, dw.Data()[i], v)
		}
	}
	if arr.Counters.GBWriteWords == 0 {
		t.Error("outer product must write gradient sums to the buffer")
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

func TestCountersAdd(t *testing.T) {
	a := Counters{MACs: 1, RowConvs: 2, PsumHops: 3, GBReadWords: 4, GBWriteWords: 5, Passes: 6}
	b := a
	a.Add(b)
	if a.MACs != 2 || a.Passes != 12 || a.GBWriteWords != 10 {
		t.Errorf("Add wrong: %+v", a)
	}
}
