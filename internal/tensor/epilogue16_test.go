package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

const canary16 = 0x5a5a

// narrow64Ref is Narrow64 one word at a time the way the training engine
// wrote it before the kernel existed: qnn's narrow64 of the 64-bit sum with
// the bias at product scale — round half up, then one clamp to int16 — and
// then the ReLU comparator at lo.
func narrow64Ref(acc int32, bias int16, bshift, shift uint, lo int16) int16 {
	v := int64(acc) + int64(bias)<<bshift
	if shift > 0 {
		v = (v + int64(1)<<(shift-1)) >> shift
	}
	return max(int16(max(min(v, 32767), -32768)), lo)
}

// checkNarrow64 runs acc through the dispatched Narrow64 and the portable
// twin alone, each into a buffer with canaries past len(acc), and holds both
// to narrow64Ref word for word.
func checkNarrow64(t *testing.T, acc []int32, bias []int16, bshift, shift uint, lo int16) {
	t.Helper()
	n := len(acc)
	got := make([]int16, n+3)
	twin := make([]int16, n+3)
	for i := n; i < n+3; i++ {
		got[i], twin[i] = canary16, canary16
	}
	Narrow64(got, acc, bias, bshift, shift, lo)
	narrow64Go(twin[:n], acc, bias, 0, bshift, shift, lo)
	for i, a := range acc {
		want := narrow64Ref(a, bias[i%len(bias)], bshift, shift, lo)
		if got[i] != want || twin[i] != want {
			t.Fatalf("n %d bias period %d bshift %d shift %d lo %d: word %d (acc %d, bias %d) = %d dispatched, %d portable, want %d",
				n, len(bias), bshift, shift, lo, i, a, bias[i%len(bias)], got[i], twin[i], want)
		}
	}
	for i := n; i < n+3; i++ {
		if got[i] != canary16 || twin[i] != canary16 {
			t.Fatalf("n %d bias period %d shift %d: wrote past the end (%d, %d)", n, len(bias), shift, got[i], twin[i])
		}
	}
}

// TestNarrow64MatchesReference sweeps the epilogue over shifts 0..34 (the
// vector body takes 1..29, the twin the rest), bias shifts 0..17 (the body
// takes up to 15), lengths from one word to past four 16-word blocks, bias
// periods the body takes (8, 16, 64, 128: rows that wrap inside a block and
// across blocks) and leaves to the twin (4, 5, 25), and three clamps: none
// (math.MinInt16), the folded ReLU (0) and a random floor. Accumulators mix
// the int32 edges, the rounding boundaries of the shift and full-range noise;
// biases include both int16 extremes, so the sum reaches both ends of the
// range the body's exactness argument covers.
func TestNarrow64MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	lengths := []int{127, 128, 129, 256, 300}
	for n := 1; n <= 70; n += 3 {
		lengths = append(lengths, n)
	}
	for shift := uint(0); shift <= 34; shift++ {
		s := max(shift, 1)
		edges := []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32, math.MaxInt32 - 1, 0, 1, -1}
		if s <= 31 {
			edges = append(edges, 1<<(s-1), -(1 << (s - 1)), 1<<(s-1)-1, -(1<<(s-1) + 1))
		}
		for _, bshift := range []uint{0, 8, 15, 17} {
			for _, period := range []int{4, 5, 8, 16, 25, 64, 128} {
				bias := randInt16s(rng, period)
				bias[0], bias[1], bias[period-1] = math.MaxInt16, math.MinInt16, math.MinInt16+1
				for _, n := range lengths {
					acc := make([]int32, n)
					for i := range acc {
						if rng.Intn(3) == 0 {
							acc[i] = edges[rng.Intn(len(edges))]
						} else {
							acc[i] = int32(rng.Uint32())
						}
					}
					for _, lo := range []int16{math.MinInt16, 0, int16(rng.Uint32())} {
						checkNarrow64(t, acc, bias, bshift, shift, lo)
					}
				}
			}
		}
	}
}

// FuzzNarrow64 holds the dispatched epilogue and its twin to narrow64Ref on
// arbitrary int32 accumulators and int16 biases, every shift and bias shift
// the engine's formats can ask for, and the clamp at the fuzzed floor as well
// as at none and at the folded ReLU's 0, both with the bias period the input
// happens to have and repeated to a multiple of 8 words, the row shape the
// vector body takes.
func FuzzNarrow64(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f}, []byte{0xff, 0x7f, 0, 0x80}, uint8(8), uint8(13), int16(0))
	f.Add(make([]byte, 4*37), []byte{1, 0, 2, 0, 3, 0}, uint8(15), uint8(32), int16(-300))
	f.Fuzz(func(t *testing.T, accBytes, biasBytes []byte, bshift, shift uint8, lo int16) {
		if len(biasBytes) < 2 {
			return
		}
		acc := make([]int32, len(accBytes)/4)
		for i := range acc {
			acc[i] = int32(binary.LittleEndian.Uint32(accBytes[4*i:]))
		}
		bias := make([]int16, len(biasBytes)/2)
		for i := range bias {
			bias[i] = int16(binary.LittleEndian.Uint16(biasBytes[2*i:]))
		}
		bs, s := uint(bshift%18), uint(shift%35)
		row := bias
		for len(row)%8 != 0 {
			row = append(row, bias...)
		}
		for _, lo := range []int16{lo, math.MinInt16, 0} {
			checkNarrow64(t, acc, bias, bs, s, lo)
			checkNarrow64(t, acc, row, bs, s, lo)
		}
	})
}

// TestPixelsToPlanes16 checks the CHW transpose against the obvious loop on
// pixel counts below, at and past whole 16-pixel blocks (3025 is AlexNet
// CONV1's 55×55) and channel counts the vector body takes (multiples of 8)
// and leaves to the portable loop, with canaries past the last plane. Below
// 16 pixels, off the multiples of 8 and in every ragged tail the portable
// loop runs alone; GOARCH=386 runs it everywhere.
func TestPixelsToPlanes16(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, np := range []int{1, 15, 16, 64, 256, 3025} {
		for _, oc := range []int{1, 5, 8, 16, 24, 96} {
			src := randInt16s(rng, np*oc)
			want := make([]int16, np*oc)
			for p := 0; p < np; p++ {
				for c := 0; c < oc; c++ {
					want[c*np+p] = src[p*oc+c]
				}
			}
			got := make([]int16, np*oc+5)
			for i := np * oc; i < len(got); i++ {
				got[i] = canary16
			}
			PixelsToPlanes16(got, src, np, oc)
			for i, w := range want {
				if got[i] != w {
					t.Fatalf("np %d oc %d: word %d (channel %d, pixel %d) = %d, want %d", np, oc, i, i/np, i%np, got[i], w)
				}
			}
			for i := np * oc; i < len(got); i++ {
				if got[i] != canary16 {
					t.Fatalf("np %d oc %d: wrote past the last plane", np, oc)
				}
			}
		}
	}
}
