package tensor

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math"
	"testing"

	"dronerl/internal/fixed"
)

// quantizeStride is the step of TestQuantize16MatchesFromFloat's sweep over
// float32 bit patterns; -quantize16.stride 1 walks all 2^32 of them.
var quantizeStride = flag.Uint64("quantize16.stride", 4099, "bit-pattern step of the Quantize16 sweep (1: every float32)")

// quantizeSpecials are the inputs where a float32 kernel could part from
// FromFloat's float64 formula: signed zeros, NaNs of both signs with quiet
// and signalling payloads, infinities, subnormals, float32's extremes, and
// for each format every tie k+½ LSB near 0 and near the clamp (±32767.5 and
// ±32768.5 LSB among them) with its float32 neighbours on either side.
func quantizeSpecials(frac uint) []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7fc00000, 0xffc00000, 0x7fc00001, 0xffc12345, // quiet NaNs
		0x7f800001, 0xff800001, 0x7fa00000, 0xffbfffff, // signalling NaNs
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest normal, ±max
	}
	xs := make([]float32, 0, len(bits)+6*(2*40+2*16))
	for _, b := range bits {
		xs = append(xs, math.Float32frombits(b))
	}
	lsb := float32(1) / float32(int32(1)<<frac)
	tie := func(k float32) {
		for _, x := range []float32{(k + 0.5) * lsb, -(k + 0.5) * lsb} {
			xs = append(xs, x, math.Nextafter32(x, 0), math.Nextafter32(x, float32(math.Inf(1))))
		}
	}
	for k := float32(0); k < 40; k++ {
		tie(k)
	}
	for k := float32(32760); k < 32776; k++ {
		tie(k)
	}
	return xs
}

// checkQuantize16 runs Quantize16 over src into a buffer with canaries past
// len(src) and holds every word to fixed.FromFloat.
func checkQuantize16(t *testing.T, kernel string, src []float32, frac uint) {
	t.Helper()
	const canary = 0x5a5a
	dst := make([]int16, len(src)+9)
	for i := range dst {
		dst[i] = canary
	}
	Quantize16(dst[:len(src)], src, frac)
	f := fixed.Format{Frac: frac}
	for i, x := range src {
		if want := int16(f.FromFloat(float64(x))); dst[i] != want {
			t.Fatalf("%s frac %d len %d word %d: Quantize16(%#08x = %g) = %d, FromFloat %d",
				kernel, frac, len(src), i, math.Float32bits(x), x, dst[i], want)
		}
	}
	for i := len(src); i < len(dst); i++ {
		if dst[i] != canary {
			t.Fatalf("%s frac %d len %d: word %d past dst was written", kernel, frac, len(src), i)
		}
	}
}

// TestQuantize16MatchesFromFloat holds the AVX2 quantizer and its portable
// twin to fixed.FromFloat(float64(x)) in Q7.8 and Q2.13: on the specials, on
// every length 0-47 (whole 16-word blocks, every len%16 tail, both
// together) with the specials rotated through the lanes, and on a strided
// sweep of the float32 bit patterns.
func TestQuantize16MatchesFromFloat(t *testing.T) {
	forEachInt16Kernel(t, func(kernel string) {
		for _, frac := range []uint{8, 13} { // frames in Q7.8, weights in Q2.13
			specials := quantizeSpecials(frac)
			checkQuantize16(t, kernel, specials, frac)
			for n := 0; n < 48; n++ {
				for off := 0; off+n <= len(specials); off += 1 + len(specials)/7 {
					checkQuantize16(t, kernel, specials[off:off+n], frac)
				}
			}
			stride := max(*quantizeStride, 1)
			chunk := make([]float32, 0, 4096)
			for b := uint64(0); b < 1<<32; b += stride {
				chunk = append(chunk, math.Float32frombits(uint32(b)))
				if len(chunk) == cap(chunk) || b+stride >= 1<<32 {
					checkQuantize16(t, kernel, chunk, frac)
					chunk = chunk[:0]
				}
			}
		}
	})
}

// FuzzQuantize16 reads the input as raw float32 words — every NaN payload,
// ±Inf, -0 and subnormal occurs — and holds Quantize16 on both kernels to
// fixed.FromFloat in every format, at the slice's start and past an offset.
func FuzzQuantize16(f *testing.F) {
	f.Add(uint8(8), []byte{0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 0, 0, 0, 0x80, 0x80, 0xff, 0xff, 0x46})
	f.Add(uint8(0x3d), bytes.Repeat([]byte{1, 0, 0, 0, 0xff, 0xff, 0x7f, 0x7f, 0, 0xfe, 0x7f, 0x3c}, 7))
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		x := make([]float32, len(data)/4)
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		x = x[min(int(sel>>4)%8, len(x)):]
		forEachInt16Kernel(t, func(kernel string) {
			checkQuantize16(t, kernel, x, uint(sel%16))
		})
	})
}
