package tensor

import "unsafe"

// Narrow16 is the int16 engine's epilogue: for every i < len(acc),
//
//	dst[i] = max(sat16(sat16(round(acc[i] / 2^shift)) + bias[i mod len(bias)]), lo)
//
// with round half up (a shift ≤ 0 multiplies exactly) and sat16 the clamp to
// int16 — the PE's narrow, a saturating bias add, and a ReLU at lo = 0 or no
// clamp at math.MinInt16. An AVX2 body takes whole bias rows when len(bias) is
// a multiple of 16 and 1 ≤ shift ≤ 15; a portable twin the rest.
func Narrow16[T ~int16](dst []T, acc []int32, bias []int16, shift int, lo int16) {
	d := asInt16(dst)[:len(acc)]
	done := narrow16Vec(d, acc, bias, shift, lo)
	narrow16Go(d[done:], acc[done:], bias, shift, lo)
}

// narrow16Go is Narrow16's twin.
func narrow16Go(dst []int16, acc []int32, bias []int16, shift int, lo int16) {
	up, down := uint(max(-shift, 0)), uint(max(shift, 0))
	half, j := int64(1)<<down>>1, 0
	for i, a := range acc {
		v := (int64(a)<<up + half) >> down
		w := int32(min(max(v, -1<<15), 1<<15-1)) + int32(bias[j])
		dst[i] = int16(max(min(w, 1<<15-1), int32(lo)))
		if j++; j == len(bias) {
			j = 0
		}
	}
}

// Narrow64 is the training engine's epilogue (qnn/train.go): for every
// i < len(acc),
//
//	dst[i] = sat16(round((acc[i] + bias[i mod len(bias)]·2^bshift) / 2^shift))
//
// with round half up: the bias joins the sum in 64 bits and the word
// saturates once. Narrow16, which narrows before a saturating bias add, is a
// different function; each engine's golden words are its own. An AVX2 body
// takes whole 16-word blocks when len(bias) is a multiple of 4, 1 ≤ shift ≤ 32
// and bshift ≤ 15; a portable twin the rest.
func Narrow64(dst []int16, acc []int32, bias []int16, bshift, shift uint) {
	d := dst[:len(acc)]
	done := narrow64Vec(d, acc, bias, bshift, shift)
	narrow64Go(d[done:], acc[done:], bias, done%max(len(bias), 1), bshift, shift)
}

// narrow64Go is Narrow64's twin, starting at bias word j.
func narrow64Go(dst []int16, acc []int32, bias []int16, j int, bshift, shift uint) {
	half := int64(1) << shift >> 1
	for i, a := range acc {
		v := (int64(a) + int64(bias[j])<<bshift + half) >> shift
		dst[i] = int16(min(max(v, -1<<15), 1<<15-1))
		if j++; j == len(bias) {
			j = 0
		}
	}
}

// PixelsToPlanes16 writes dst[c·np+p] = src[p·oc+c]: a convolution's
// (pixel, oc) words as oc CHW planes of np words. An AVX2 body takes whole
// 16-pixel blocks when oc is a multiple of 8; a portable loop the rest.
func PixelsToPlanes16[T ~int16](dst []T, src []int16, np, oc int) {
	d, s := asInt16(dst)[:np*oc], src[:np*oc]
	for p := planes16Vec(d, s, np, oc); p < np; p++ {
		for c, w := range s[p*oc : (p+1)*oc] {
			d[c*np+p] = w
		}
	}
}

func asInt16[T ~int16](s []T) []int16 {
	return unsafe.Slice((*int16)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}
