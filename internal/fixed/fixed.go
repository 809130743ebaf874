// Package fixed holds the 16-bit fixed-point encoding used by the paper's
// embedded accelerator ("Arithmetic precision: 16 bit fixed-point",
// Fig. 4(b)): a Word is an int16 in a Qm.n Format whose n fractional bits
// are chosen per tensor, encoded with round-to-nearest (FromFloat) or
// stochastic rounding (SR) and saturated at the format's range, which is how
// the hardware clamps on overflow. The arithmetic on words lives in
// internal/tensor's int16 kernels, which internal/qnn runs.
package fixed

import (
	"fmt"
	"math"
)

// Word is a 16-bit fixed-point value. Its numeric meaning depends on the
// Format it was encoded with.
type Word int16

// Format describes a Qm.n fixed-point encoding with n fractional bits.
// The total width is always 16 bits (1 sign, 15-n integer, n fractional).
type Format struct {
	// Frac is the number of fractional bits (0..15).
	Frac uint
}

// Q78 is the default format used for weights and activations: Q7.8 gives a
// range of [-128, 127.996] with a resolution of 1/256, a common choice for
// CNN inference at 16 bits.
var Q78 = Format{Frac: 8}

// Q114 is a high-resolution format for gradients and learning rates:
// Q1.14 covers [-2, 2) with resolution 1/16384.
var Q114 = Format{Frac: 14}

// String returns the Qm.n name of the format, e.g. "Q7.8".
func (f Format) String() string {
	return fmt.Sprintf("Q%d.%d", 15-f.Frac, f.Frac)
}

// One returns the encoding of 1.0 in this format.
func (f Format) One() Word { return Word(1) << f.Frac }

// Eps returns the smallest positive increment representable in this format.
func (f Format) Eps() float64 { return 1 / float64(int32(1)<<f.Frac) }

// Max returns the largest representable value in this format.
func (f Format) Max() float64 { return float64(math.MaxInt16) * f.Eps() }

// Min returns the most negative representable value in this format.
func (f Format) Min() float64 { return float64(math.MinInt16) * f.Eps() }

// FromFloat encodes x, rounding to nearest (ties to even) and saturating at
// the format's range limits, which is the overflow behaviour of the hardware
// quantizer. NaN encodes as 0.
func (f Format) FromFloat(x float64) Word {
	scaled := math.RoundToEven(x * float64(int32(1)<<f.Frac))
	switch {
	case scaled != scaled:
		return 0
	case scaled > math.MaxInt16:
		return math.MaxInt16
	case scaled < math.MinInt16:
		return math.MinInt16
	}
	return Word(scaled)
}

// ToFloat decodes w back to a float64.
func (f Format) ToFloat(w Word) float64 {
	return float64(w) * f.Eps()
}

func saturate16From64(v int64) Word {
	switch {
	case v > math.MaxInt16:
		return math.MaxInt16
	case v < math.MinInt16:
		return math.MinInt16
	}
	return Word(v)
}
