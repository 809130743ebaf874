package nn

import (
	"math"
	"strings"
	"testing"
)

// The weight table of Fig. 3(a), which the spec must reproduce exactly.
var fig3aWeights = map[string]int{
	"FC1": 37752832,
	"FC2": 8390656,
	"FC3": 4196352,
	"FC4": 2098176,
	"FC5": 5125,
}

var fig3aNeurons = map[string]int{
	"FC1": 9216,
	"FC2": 4096,
	"FC3": 2048,
	"FC4": 2048,
	"FC5": 1024,
}

func TestModifiedAlexNetSpecValid(t *testing.T) {
	spec := ModifiedAlexNetSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFig3aWeightCounts(t *testing.T) {
	spec := ModifiedAlexNetSpec()
	for _, f := range spec.FCs {
		if want := fig3aWeights[f.Name]; f.Weights() != want {
			t.Errorf("%s weights = %d, want %d", f.Name, f.Weights(), want)
		}
	}
	if got := spec.FCWeights(); got != 52443141 {
		t.Errorf("FC weight sum = %d, want 52443141 (Fig. 3(a))", got)
	}
	if got := spec.TotalWeights(); got != 56190341 {
		t.Errorf("total weights = %d, want 56190341", got)
	}
}

func TestFig3aNeuronColumn(t *testing.T) {
	spec := ModifiedAlexNetSpec()
	rows := spec.WeightCensus()
	for _, r := range rows {
		if r.Layer == "output" {
			if r.Neurons != 5 {
				t.Errorf("output neurons = %d, want 5", r.Neurons)
			}
			continue
		}
		if want := fig3aNeurons[r.Layer]; r.Neurons != want {
			t.Errorf("%s neurons = %d, want %d", r.Layer, r.Neurons, want)
		}
	}
	if got := spec.NeuronSum(); got != 18437 {
		t.Errorf("neuron sum = %d, want 18437 (Fig. 3(a))", got)
	}
}

func TestFig3aPercentColumns(t *testing.T) {
	spec := ModifiedAlexNetSpec()
	rows := spec.WeightCensus()
	// Paper values: % total and % cumulative per FC layer.
	want := map[string][2]float64{
		"FC1": {67.18, 93.33},
		"FC2": {14.93, 26.14},
		"FC3": {7.468, 11.21},
		"FC4": {3.734, 3.743},
		"FC5": {0.009, 0.009},
	}
	for _, r := range rows {
		w, ok := want[r.Layer]
		if !ok {
			continue
		}
		if math.Abs(r.PctTotal-w[0]) > 0.01 {
			t.Errorf("%s %%total = %.3f, want %.3f", r.Layer, r.PctTotal, w[0])
		}
		if math.Abs(r.PctCumulative-w[1]) > 0.01 {
			t.Errorf("%s %%cumulative = %.3f, want %.3f", r.Layer, r.PctCumulative, w[1])
		}
	}
}

func TestConvChainDimensions(t *testing.T) {
	spec := ModifiedAlexNetSpec()
	// Classic AlexNet progression: 55 -> 27 -> 13 -> 13 -> 13 -> 6.
	wantPre := []int{55, 27, 13, 13, 13}
	wantPost := []int{27, 13, 13, 13, 6}
	for i := range spec.Convs {
		pre, post := spec.ConvOut(i)
		if pre != wantPre[i] || post != wantPost[i] {
			t.Errorf("conv %d dims = (%d,%d), want (%d,%d)", i, pre, post, wantPre[i], wantPost[i])
		}
	}
	if got := spec.FlattenDim(); got != 9216 {
		t.Errorf("flatten dim = %d, want 9216", got)
	}
}

func TestTrainedFractions(t *testing.T) {
	spec := ModifiedAlexNetSpec()
	// Fig. 3(b): 4%, 11%, 26% of total weights; E2E = 100%.
	cases := []struct {
		cfg  Config
		frac float64
	}{
		{L2, 0.03743}, {L3, 0.1121}, {L4, 0.2614}, {E2E, 1.0},
	}
	for _, c := range cases {
		got := spec.TrainedFraction(c.cfg)
		if math.Abs(got-c.frac) > 0.001 {
			t.Errorf("%v trained fraction = %.4f, want %.4f", c.cfg, got, c.frac)
		}
	}
}

func TestTrainedWeightsExact(t *testing.T) {
	spec := ModifiedAlexNetSpec()
	if got := spec.TrainedWeights(L2); got != 2103301 {
		t.Errorf("L2 trained weights = %d, want 2103301", got)
	}
	if got := spec.TrainedWeights(L3); got != 6299653 {
		t.Errorf("L3 trained weights = %d, want 6299653", got)
	}
	if got := spec.TrainedWeights(L4); got != 14690309 {
		t.Errorf("L4 trained weights = %d, want 14690309", got)
	}
	if got := spec.TrainedWeights(E2E); got != 56190341 {
		t.Errorf("E2E trained weights = %d, want 56190341", got)
	}
}

func TestConvWeightsBreakdown(t *testing.T) {
	spec := ModifiedAlexNetSpec()
	want := []int{34944, 614656, 885120, 1327488, 884992}
	for i, c := range spec.Convs {
		if c.Weights() != want[i] {
			t.Errorf("%s weights = %d, want %d", c.Name, c.Weights(), want[i])
		}
	}
	if got := spec.ConvWeights(); got != 3747200 {
		t.Errorf("conv weight sum = %d, want 3747200", got)
	}
}

func TestNavNetSpecValid(t *testing.T) {
	spec := NavNetSpec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.FCs[len(spec.FCs)-1].Out != NavNetActions {
		t.Error("NavNet must output one Q-value per action")
	}
}

func TestConfigStrings(t *testing.T) {
	if E2E.String() != "E2E" || L2.String() != "L2" || L3.String() != "L3" || L4.String() != "L4" {
		t.Error("config names must match the paper's labels")
	}
	if Config(99).String() == "" {
		t.Error("unknown config must still render")
	}
}

func TestParseConfig(t *testing.T) {
	for _, c := range Configs {
		for _, name := range []string{c.String(), strings.ToLower(c.String())} {
			if got, err := ParseConfig(name); err != nil || got != c {
				t.Errorf("ParseConfig(%q) = %v, %v; want %v", name, got, err, c)
			}
		}
	}
	for _, name := range []string{"", "L9", "Config(99)", " L3", "l3 "} {
		if c, err := ParseConfig(name); err == nil {
			t.Errorf("ParseConfig(%q) = %v, want an error", name, c)
		}
	}
}

func TestConfigTrainedFCLayers(t *testing.T) {
	if L2.TrainedFCLayers() != 2 || L3.TrainedFCLayers() != 3 || L4.TrainedFCLayers() != 4 {
		t.Error("Lk must train k trailing FC layers")
	}
	if E2E.TrainedFCLayers() != -1 {
		t.Error("E2E sentinel must be -1")
	}
}
