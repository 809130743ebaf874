package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func randInt16s(rng *rand.Rand, n int) []int16 {
	v := make([]int16, n)
	for i := range v {
		v[i] = int16(rng.Intn(1<<16) - 1<<15)
	}
	return v
}

// TestDot16MatchesScalar is the unconditional bit-identity gate for the
// dispatched kernel: wrap-around accumulation is associative mod 2^32, so
// the AVX2 lane order must reproduce the scalar loop exactly on every
// input, including lengths that exercise the 16-wide blocks, the scalar
// tail, and both together.
func TestDot16MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 2, 7, 15, 16, 17, 31, 32, 33, 48, 100, 255, 256, 1000} {
		a := randInt16s(rng, n)
		b := randInt16s(rng, n)
		want := dot16Scalar(a, b)
		if got := Dot16(a, b); got != want {
			t.Errorf("n=%d: Dot16 = %d, scalar = %d", n, got, want)
		}
	}
}

// TestDot16Wraparound pins the overflow semantics: saturating per-step
// accumulation would clamp these, wrap-around must not.
func TestDot16Wraparound(t *testing.T) {
	// Three max-magnitude products of 2^30 each: exact sum 3*2^30 wraps to
	// 3*2^30 - 2^32 = -2^30.
	a := []int16{math.MinInt16, math.MinInt16, math.MinInt16}
	b := []int16{math.MinInt16, math.MinInt16, math.MinInt16}
	want := int32(-(1 << 30))
	if got := Dot16(a, b); got != want {
		t.Fatalf("Dot16 wraparound = %d, want %d", got, want)
	}
	if got := dot16Scalar(a, b); got != want {
		t.Fatalf("scalar wraparound = %d, want %d", got, want)
	}
	// VPMADDWD's defined edge case: both elements of one pair at -32768.
	// Pairwise sum 2^31 wraps to -2^31; a third product must keep adding
	// mod 2^32 on top of it.
	a = []int16{math.MinInt16, math.MinInt16, 3, 0}
	b = []int16{math.MinInt16, math.MinInt16, 5, 0}
	// Pad to 16 so the AVX2 block path (and with it VPMADDWD) runs.
	a = append(a, make([]int16, 12)...)
	b = append(b, make([]int16, 12)...)
	want = int32(math.MinInt32 + 15)
	if got := Dot16(a, b); got != want {
		t.Fatalf("Dot16 VPMADDWD edge = %d, want %d", got, want)
	}
	if got := dot16Scalar(a, b); got != want {
		t.Fatalf("scalar VPMADDWD edge = %d, want %d", got, want)
	}
}

// TestMatMul16TMatchesScalar checks the parallel row schedule against a
// direct triple loop, at a size above the parallel threshold.
func TestMatMul16TMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m, k, n = 64, 80, 70 // m*n*k > parallelFlops
	a := randInt16s(rng, m*k)
	bT := randInt16s(rng, n*k)
	dst := make([]int32, m*n)
	MatMul16T(dst, a, bT, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(a[i*k+p]) * int32(bT[j*k+p])
			}
			if dst[i*n+j] != acc {
				t.Fatalf("dst[%d,%d] = %d, want %d", i, j, dst[i*n+j], acc)
			}
		}
	}
}

// axpyPanel16Ref is AxpyPanel16 one word at a time, in int64, with no zero
// skip: the definition the asm body and the twin are held to.
func axpyPanel16Ref(dst []int64, a []int16, sa int, b []int16, offs []int) {
	for j := range dst {
		for p, o := range offs {
			dst[j] += int64(a[p*sa]) * int64(b[o+j])
		}
	}
}

// checkAxpyPanel16 runs the dispatched kernel and the twin alone from the
// same start, each with canaries past len(dst), and holds both to the
// reference word for word.
func checkAxpyPanel16(t *testing.T, start []int64, a []int16, sa int, b []int16, offs []int) {
	t.Helper()
	n := len(start)
	want := append([]int64(nil), start...)
	axpyPanel16Ref(want, a, sa, b, offs)
	const canary = int64(0x5a5a5a5a5a5a5a5a)
	got := append(append([]int64(nil), start...), canary, canary)
	twin := append(append([]int64(nil), start...), canary, canary)
	AxpyPanel16(got[:n], a, sa, b, offs)
	axpyPanel16Go(twin[:n], a, sa, b, offs)
	for j, w := range want {
		if got[j] != w || twin[j] != w {
			t.Fatalf("n %d k %d sa %d: dst[%d] = %d dispatched, %d portable, want %d", n, len(offs), sa, j, got[j], twin[j], w)
		}
	}
	if got[n] != canary || got[n+1] != canary || twin[n] != canary || twin[n+1] != canary {
		t.Fatalf("n %d k %d sa %d: wrote past the end", n, len(offs), sa)
	}
}

// TestAxpyPanel16MatchesReference sweeps the gradient kernel over every
// column count from 0 to 70 (the 16-column blocks, the 4-column blocks and
// the twin's tail, alone and together) and the training engine's shapes,
// row counts from 1 to 40, coefficient strides 1 and 7, rows in order,
// reversed and overlapping, and coefficients that are zero (skipped), ±32768
// and full-range noise, against destinations that start near the int64 edges.
func TestAxpyPanel16MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cols := []int{128, 1024}
	for n := 0; n <= 70; n++ {
		cols = append(cols, n)
	}
	for _, n := range cols {
		for _, k := range []int{1, 3, 32, 40} {
			for _, sa := range []int{1, 7} {
				a := randInt16s(rng, (k-1)*sa+1)
				for p := 0; p < k; p++ {
					switch rng.Intn(4) {
					case 0:
						a[p*sa] = 0
					case 1:
						a[p*sa] = math.MinInt16
					}
				}
				b := randInt16s(rng, (k+1)*(n+3))
				for i := range b {
					if rng.Intn(5) == 0 {
						b[i] = math.MinInt16
					}
				}
				offs := make([]int, k)
				for p := range offs {
					switch rng.Intn(3) {
					case 0:
						offs[p] = p * (n + 3) // dense rows
					case 1:
						offs[p] = (k - p) * (n + 3) // reversed
					default:
						offs[p] = rng.Intn(len(b) - n + 1) // anywhere, overlapping
					}
				}
				start := make([]int64, n)
				for j := range start {
					start[j] = rng.Int63n(1<<40) - 1<<39
					if rng.Intn(8) == 0 {
						start[j] = math.MaxInt64 - 1<<40 // headroom for k·2^30
					}
				}
				checkAxpyPanel16(t, start, a, sa, b, offs)
			}
		}
	}
}

// TestAxpyPanel16RejectsShortOperands holds the bounds the asm relies on:
// a row of b that ends before len(dst) columns, or a coefficient past a,
// panics before any word is read.
func TestAxpyPanel16RejectsShortOperands(t *testing.T) {
	for name, call := range map[string]func(){
		"short b row":       func() { AxpyPanel16(make([]int64, 16), make([]int16, 2), 1, make([]int16, 31), []int{0, 16}) },
		"short coefficient": func() { AxpyPanel16(make([]int64, 16), make([]int16, 2), 2, make([]int16, 64), []int{0, 16}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzAxpyPanel16 holds the dispatched kernel and its twin to the reference
// on arbitrary words: coefficients and b rows from the input bytes (both
// int16 extremes reachable), any column count, row count and stride, and
// offsets drawn from a seed.
func FuzzAxpyPanel16(f *testing.F) {
	f.Add([]byte{0, 0x80, 0xff, 0x7f, 0, 0}, []byte{0, 0x80, 0, 0x80, 1, 0}, uint8(16), uint8(3), uint8(1), int64(1))
	f.Add(make([]byte, 64), make([]byte, 512), uint8(37), uint8(9), uint8(2), int64(7))
	f.Fuzz(func(t *testing.T, aBytes, bBytes []byte, n8, k8, sa8 uint8, seed int64) {
		n, k, sa := int(n8%80), int(k8%48)+1, int(sa8%5)+1
		a := make([]int16, (k-1)*sa+1)
		for i := range a {
			if 2*i+1 < len(aBytes) {
				a[i] = int16(binary.LittleEndian.Uint16(aBytes[2*i:]))
			}
		}
		b := make([]int16, max(len(bBytes)/2, n))
		for i := range len(bBytes) / 2 {
			b[i] = int16(binary.LittleEndian.Uint16(bBytes[2*i:]))
		}
		rng := rand.New(rand.NewSource(seed))
		offs := make([]int, k)
		for p := range offs {
			offs[p] = rng.Intn(len(b) - n + 1)
		}
		start := make([]int64, n)
		for j := range start {
			start[j] = rng.Int63() - 1<<62
		}
		checkAxpyPanel16(t, start, a, sa, b, offs)
	})
}
