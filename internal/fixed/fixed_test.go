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

func TestFormatValid(t *testing.T) {
	if !Q78.Valid() || !Q114.Valid() {
		t.Fatal("standard formats must be valid")
	}
	if (Format{Frac: 16}).Valid() {
		t.Error("Frac=16 must be invalid")
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
		q := f.Quantize(x)
		return math.Abs(q-x) <= f.Eps()/2+1e-12
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSatAddProperties(t *testing.T) {
	err := quick.Check(func(a, b int16) bool {
		got := SatAdd(Word(a), Word(b))
		want := int32(a) + int32(b)
		if want > math.MaxInt16 {
			want = math.MaxInt16
		}
		if want < math.MinInt16 {
			want = math.MinInt16
		}
		return int32(got) == want
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSatSubProperties(t *testing.T) {
	err := quick.Check(func(a, b int16) bool {
		got := SatSub(Word(a), Word(b))
		want := int32(a) - int32(b)
		if want > math.MaxInt16 {
			want = math.MaxInt16
		}
		if want < math.MinInt16 {
			want = math.MinInt16
		}
		return int32(got) == want
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestMACMatchesWideArithmetic(t *testing.T) {
	err := quick.Check(func(acc int32, a, b int16) bool {
		got := MAC(Acc(acc), Word(a), Word(b))
		want := int64(acc) + int64(a)*int64(b)
		if want > math.MaxInt32 {
			want = math.MaxInt32
		}
		if want < math.MinInt32 {
			want = math.MinInt32
		}
		return int64(got) == want
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestNarrowRounds(t *testing.T) {
	f := Q78
	// 1.5 * 2.25 = 3.375, representable exactly in Q7.8 (3.375*256=864).
	a := f.FromFloat(1.5)
	b := f.FromFloat(2.25)
	got := f.ToFloat(f.Narrow(Mul(a, b)))
	if got != 3.375 {
		t.Errorf("1.5*2.25 = %v, want 3.375", got)
	}
}

func TestNarrowToCrossFormat(t *testing.T) {
	// Multiply two Q7.8 values and narrow into Q1.14.
	a := Q78.FromFloat(0.5)
	b := Q78.FromFloat(0.25)
	w := Q78.NarrowTo(Mul(a, b), Q114)
	if got := Q114.ToFloat(w); math.Abs(got-0.125) > Q114.Eps() {
		t.Errorf("0.5*0.25 narrowed to Q1.14 = %v, want 0.125", got)
	}
}

func TestReLU(t *testing.T) {
	if ReLU(-5) != 0 {
		t.Error("ReLU(-5) != 0")
	}
	if ReLU(7) != 7 {
		t.Error("ReLU(7) != 7")
	}
	if ReLU(0) != 0 {
		t.Error("ReLU(0) != 0")
	}
}

func TestMax2(t *testing.T) {
	if Max2(3, 9) != 9 || Max2(9, 3) != 9 || Max2(-1, -2) != -1 {
		t.Error("Max2 comparator is wrong")
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 120)
		q := Q78.Quantize(x)
		return Q78.Quantize(q) == q
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
