package tensor

// Narrow64 is the int16 engine's epilogue (qnn/train.go): for every
// i < len(acc),
//
//	dst[i] = max(sat16(round((acc[i] + bias[i mod len(bias)]·2^bshift) / 2^shift)), lo)
//
// with round half up: the bias joins the sum in 64 bits, the word saturates
// once, and the clamp at lo is a directly following ReLU (lo = 0) or none
// (lo = math.MinInt16). An AVX2 body takes whole 16-word blocks in int32
// lanes when len(bias) is a multiple of 8, 1 ≤ shift ≤ 29 and bshift ≤ 15; a
// portable twin the rest.
func Narrow64(dst []int16, acc []int32, bias []int16, bshift, shift uint, lo int16) {
	d := dst[:len(acc)]
	done := narrow64Vec(d, acc, bias, bshift, shift, lo)
	narrow64Go(d[done:], acc[done:], bias, done%max(len(bias), 1), bshift, shift, lo)
}

// narrow64Go is Narrow64's twin, starting at bias word j.
func narrow64Go(dst []int16, acc []int32, bias []int16, j int, bshift, shift uint, lo int16) {
	half := int64(1) << shift >> 1
	for i, a := range acc {
		v := (int64(a) + int64(bias[j])<<bshift + half) >> shift
		dst[i] = max(int16(min(max(v, -1<<15), 1<<15-1)), lo)
		if j++; j == len(bias) {
			j = 0
		}
	}
}

// PixelsToPlanes16 writes dst[c·np+p] = src[p·oc+c]: a convolution's
// (pixel, oc) words as oc CHW planes of np words. An AVX2 body takes whole
// 16-pixel blocks when oc is a multiple of 8; a portable loop the rest.
func PixelsToPlanes16(dst, src []int16, np, oc int) {
	d, s := dst[:np*oc], src[:np*oc]
	for p := planes16Vec(d, s, np, oc); p < np; p++ {
		for c, w := range s[p*oc : (p+1)*oc] {
			d[c*np+p] = w
		}
	}
}
