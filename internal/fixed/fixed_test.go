package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFormatString(t *testing.T) {
	if got := Q78.String(); got != "Q7.8" {
		t.Errorf("Q78.String() = %q, want Q7.8", got)
	}
	if got := Q114.String(); got != "Q1.14" {
		t.Errorf("Q114.String() = %q, want Q1.14", got)
	}
}

func TestOneEncoding(t *testing.T) {
	for _, f := range []Format{Q78, Q114, {Frac: 0}, {Frac: 15}} {
		if f.Frac == 15 {
			// 1.0 is not representable in Q0.15; One still returns the
			// shifted bit pattern, which overflows to the sign bit, so
			// skip the numeric check.
			continue
		}
		if got := f.ToFloat(f.One()); got != 1.0 {
			t.Errorf("%v: ToFloat(One()) = %v, want 1", f, got)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if got := Q78.FromFloat(1e9); got != math.MaxInt16 {
		t.Errorf("positive overflow: got %d, want %d", got, math.MaxInt16)
	}
	if got := Q78.FromFloat(-1e9); got != math.MinInt16 {
		t.Errorf("negative overflow: got %d, want %d", got, math.MinInt16)
	}
}

// TestFromFloatNaNIsZero pins NaN → 0 as a rule of FromFloat rather than of
// the platform's float-to-int conversion, for quiet and signalling NaNs of
// both signs (float32 ones widened, as the int16 engine's quantizer sees
// them) in every format.
func TestFromFloatNaNIsZero(t *testing.T) {
	nans := []float64{
		math.NaN(),
		math.Float64frombits(0xfff8000000000001),
		math.Float64frombits(0x7ff0000000000001),
		float64(math.Float32frombits(0x7fc00123)),
		float64(math.Float32frombits(0xff800001)),
	}
	for frac := uint(0); frac <= 15; frac++ {
		for _, x := range nans {
			if got := (Format{Frac: frac}).FromFloat(x); got != 0 {
				t.Errorf("Q%d.%d FromFloat(%x) = %d, want 0", 15-frac, frac, math.Float64bits(x), got)
			}
		}
	}
}

func TestRoundTripExactValues(t *testing.T) {
	// Multiples of the format epsilon must round-trip exactly.
	for _, f := range []Format{Q78, Q114} {
		eps := f.Eps()
		for _, k := range []int{-300, -2, -1, 0, 1, 2, 77, 300} {
			x := float64(k) * eps
			if x > f.Max() || x < f.Min() {
				continue
			}
			if got := f.ToFloat(f.FromFloat(x)); got != x {
				t.Errorf("%v: round trip of %v = %v", f, x, got)
			}
		}
	}
}

func TestQuantizeErrorBound(t *testing.T) {
	f := Q78
	err := quick.Check(func(x float64) bool {
		// Constrain to in-range finite inputs.
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 100) // keep well inside Q7.8 range
		q := f.ToFloat(f.FromFloat(x))
		return math.Abs(q-x) <= f.Eps()/2+1e-12
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 120)
		w := Q78.FromFloat(x)
		return Q78.FromFloat(Q78.ToFloat(w)) == w
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
