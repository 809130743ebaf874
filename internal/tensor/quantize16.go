package tensor

import "math"

// Quantize16 is the int16 engine's input stage (qnn's frames in Q7.8, its
// weights at compile in Q2.13): for every i < len(src),
//
//	dst[i] = sat16(roundToEven(src[i] · 2^frac)), NaN → 0
//
// which is fixed.Format{Frac: frac}.FromFloat(float64(src[i])) word for
// word. The product is exact in float32 (a power-of-two scale only moves the
// exponent, and a product past float32's range saturates as its float64
// twin does), so the AVX2 body rounds and clamps in float32 lanes: whole
// 16-word blocks, with NaN lanes zeroed by an ordered-compare mask before
// the round. A portable twin takes the len%16 words left and the non-AVX2
// path.
func Quantize16(dst []int16, src []float32, frac uint) {
	d := dst[:len(src)]
	done := quantize16Vec(d, src, frac)
	quantize16Go(d[done:], src[done:], frac)
}

// quantize16Go is Quantize16's twin: FromFloat's formula in float64.
func quantize16Go(dst []int16, src []float32, frac uint) {
	scale := float64(int32(1) << frac)
	for i, x := range src {
		v := math.RoundToEven(float64(x) * scale)
		switch {
		case v != v:
			dst[i] = 0
		case v > math.MaxInt16:
			dst[i] = math.MaxInt16
		case v < math.MinInt16:
			dst[i] = math.MinInt16
		default:
			dst[i] = int16(v)
		}
	}
}
