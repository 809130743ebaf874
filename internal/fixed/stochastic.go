package fixed

import "math"

// Stochastic rounding for the quantized training path. A deterministic
// weight update rounds lr*grad to the nearest representable step, so any
// update smaller than half an LSB of the weight format vanishes — and with
// 16-bit weights and the paper's learning rates, *most* late-training
// updates are smaller than half an LSB. Rounding stochastically instead
// (floor, plus one with probability equal to the discarded fraction) makes
// the rounded update correct in expectation, so small gradients accumulate
// across steps instead of silently dying. This is the standard recipe for
// low-precision training (Gupta et al., "Deep Learning with Limited
// Numerical Precision"), and the regime Roy et al. study for MRAM training
// scratchpads (PAPERS.md).
//
// The randomness source is a tiny private xorshift generator rather than
// math/rand: updates draw one word per rounded value on the training hot
// path, the stream must be embeddable in the accelerator model (a hardware
// LFSR plays this role in real quantized trainers), and a fixed seed must
// reproduce the training run bit for bit — asserted by the stochastic
// rounding tests.

// SR is a deterministic stochastic-rounding source. The zero value is not
// usable; construct with NewSR.
type SR struct {
	state uint64
}

// NewSR returns a stochastic rounder seeded with the given value. Two SRs
// with the same seed produce identical rounding decisions forever.
func NewSR(seed uint64) *SR {
	if seed == 0 {
		// xorshift has a zero fixed point; remap to an arbitrary odd seed.
		seed = 0x9E3779B97F4A7C15
	}
	return &SR{state: seed}
}

// next advances the xorshift64* generator and returns the next 64-bit word.
func (s *SR) next() uint64 {
	x := s.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.state = x
	return x * 0x2545F4914F6CDD1D
}

// Round rounds the 2^shift-scaled fixed-point value v to an integer
// stochastically: the result is floor(v/2^shift) plus one with probability
// equal to the discarded fraction, so E[Round(v, shift)] = v / 2^shift
// exactly. shift must be in [0, 62]. Negative values round via the
// arithmetic floor (toward -infinity), keeping the expectation identity for
// both signs.
func (s *SR) Round(v int64, shift uint) int64 {
	if shift == 0 {
		return v
	}
	floor := v >> shift
	frac := uint64(v) & (1<<shift - 1) // v - floor*2^shift, in [0, 2^shift)
	if frac == 0 {
		return floor
	}
	if s.next()&(1<<shift-1) < frac {
		return floor + 1
	}
	return floor
}

// FromFloatStochastic encodes x into format f with stochastic rounding and
// saturation: the expected encoded value equals x (within the format's
// range), where FromFloat's round-to-nearest would bias every sub-LSB value
// to the same neighbour.
func (f Format) FromFloatStochastic(x float64, s *SR) Word {
	// Rounded by the conversion, so scaled - floor below cannot fuse into a
	// multiply-subtract on targets that have one.
	scaled := float64(x * float64(int32(1)<<f.Frac))
	floor := math.Floor(scaled)
	frac := scaled - floor
	v := int64(floor)
	if frac > 0 {
		// Compare against a 53-bit draw: float64 cannot resolve finer.
		if float64(s.next()>>11)/(1<<53) < frac {
			v++
		}
	}
	return saturate16From64(v)
}
