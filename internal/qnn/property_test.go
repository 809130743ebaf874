package qnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dronerl/internal/fixed"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// TestDenseQuantizationErrorBound: for random small dense layers the
// integer result must stay within the analytic worst-case quantization
// error of the float reference: each of the `in` products contributes at
// most (|x| * eps_w + |w| * eps_x + eps_w*eps_x), plus one output rounding
// step.
func TestDenseQuantizationErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	opts := Options{}
	opts.WeightFmt = fixed.Format{Frac: 13}
	opts.ActFmt = fixed.Q78

	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := 1 + r.Intn(32)
		out := 1 + r.Intn(8)
		layer := nn.NewDense("d", in, out)
		for i := range layer.Weight.W.Data() {
			layer.Weight.W.Data()[i] = float32(r.NormFloat64() * 0.5)
		}
		layer.Weight.MarkChanged()
		net := nn.NewNetwork(layer)
		q, errC := Compile(net, opts)
		if errC != nil {
			return false
		}
		x := tensor.New(in)
		for i := range x.Data() {
			x.Data()[i] = r.Float32() // activations in [0,1]
		}
		ref := net.Forward(x.Clone())
		qs := q.Forward(x.Data(), [3]int{in, 1, 1})
		// Analytic bound.
		epsW := opts.WeightFmt.Eps()
		epsX := opts.ActFmt.Eps()
		bound := float64(in)*(1.0*epsW+2.5*epsX+epsW*epsX) + epsX
		for j, v := range qs {
			diff := math.Abs(float64(v) - float64(ref.At(j)))
			if diff > bound {
				t.Logf("in=%d out=%d diff=%v bound=%v", in, out, diff, bound)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40, Rand: rng})
	if err != nil {
		t.Error(err)
	}
}

// TestIntegerOutputsAlwaysInRange: whatever the input, integer Q-values
// decode into the format's representable range (saturation, never wrap).
func TestIntegerOutputsAlwaysInRange(t *testing.T) {
	net := nn.BuildNavNet()
	net.Init(rand.New(rand.NewSource(92)))
	// Inflate some weights to provoke saturation.
	for _, p := range net.Params() {
		for i := range p.W.Data() {
			if i%97 == 0 {
				p.W.Data()[i] *= 50
			}
		}
		p.MarkChanged()
	}
	q, err := Compile(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 20; trial++ {
		x := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		for i := range x.Data() {
			x.Data()[i] = rng.Float32() * 4 // out-of-normal-range inputs
		}
		f := q.InFmt
		for _, qv := range q.Forward(x.Data(), [3]int{1, nn.NavNetInput, nn.NavNetInput}) {
			v := float64(qv)
			if v > f.Max() || v < f.Min() || math.IsNaN(v) {
				t.Fatalf("decoded Q-value %v escapes the format range", v)
			}
		}
	}
}
