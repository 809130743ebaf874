package serve

import (
	"flag"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// actNumberStride is the step of TestActNumberMatchesStrconv's sweep over
// float32 bit patterns; -actnumber.stride 1 walks all 2^32 of them.
var actNumberStride = flag.Uint64("actnumber.stride", 8191, "bit-pattern step of the number sweep (1: every float32)")

// numberMismatch compares number with strconv.ParseFloat(s, 32) on one text:
// both refuse it, or both accept it with the same float32 bits and number
// consumes the whole text. It returns "" when they agree.
func numberMismatch(s []byte) string {
	want, err := strconv.ParseFloat(string(s), 32)
	f, end, _ := number(s, 0)
	text := string(s)
	if len(text) > 60 {
		text = text[:24] + "…(" + strconv.Itoa(len(s)) + " bytes)…" + text[len(text)-24:]
	}
	switch {
	case err != nil && end >= 0:
		return "number accepts " + text + ", strconv says " + err.(*strconv.NumError).Err.Error()
	case err != nil:
		return ""
	case end != len(s):
		return "number stops at " + strconv.Itoa(end) + " in " + text
	case math.Float32bits(f) != math.Float32bits(float32(want)):
		return "number(" + text + ") = " + strconv.FormatUint(uint64(math.Float32bits(f)), 16) +
			", strconv " + strconv.FormatUint(uint64(math.Float32bits(float32(want))), 16)
	}
	return ""
}

// nearMidpoints prints the float32 midpoint between x and its upper
// neighbour with 16 to 19 significant digits, and each of those plus and
// minus one in the last digit. A 16-digit text is often one float64 rounding
// away from the midpoint itself, where float64 rounding then float32
// rounding can part from rounding once; the longer texts exceed 2^53.
func nearMidpoints(x float32) []string {
	mid := (float64(x) + float64(math.Nextafter32(x, float32(math.Inf(1))))) / 2
	var out []string
	for digits := 16; digits <= 19; digits++ {
		s := strconv.FormatFloat(mid, 'e', digits-1, 64)
		mant, exp, _ := strings.Cut(s, "e")
		m, err := strconv.ParseUint(strings.Replace(mant, ".", "", 1), 10, 64)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
		for _, d := range []uint64{m - 1, m + 1} {
			t := strconv.FormatUint(d, 10)
			if len(t) == digits {
				out = append(out, t[:1]+"."+t[1:]+"e"+exp)
			}
		}
	}
	return out
}

// grammarEdges are texts no float formatter prints, aimed at the scanner's
// bounds: long runs of zeros against long exponents, exponents that saturate,
// mantissas past 19 digits with nonzero tails, and zero with a huge exponent.
var grammarEdges = []string{
	"0." + strings.Repeat("0", 100000) + "1e1000000", // e offset by the zeros, exponent saturated
	"0." + strings.Repeat("0", 100000) + "1e99999",   // the same offset, exponent in range: 0.01
	"0." + strings.Repeat("0", 99990) + "25e99999",
	"-0." + strings.Repeat("0", 40) + "1e41",
	"1" + strings.Repeat("0", 100000) + "e-1000000",
	"1" + strings.Repeat("0", 100000) + "e-99999",
	"1" + strings.Repeat("0", 30) + "e-30",
	"1e" + strings.Repeat("0", 40) + "1",
	"1e-" + strings.Repeat("9", 40),
	"1e+" + strings.Repeat("9", 40),
	"0e99999999", "-0e99999999", "0.0e-99999999", "0." + strings.Repeat("0", 1000),
	"100000000000000000001", "12345678901234567890123", "18446744073709551615",
	"18446744073709551616", "9007199254740993", "9007199254740993e-22",
	"1" + strings.Repeat("0", 19) + "1e-20", "4." + strings.Repeat("0", 30) + "1e-1",
	"1e22", "1e23", "1e-22", "1e-23", "3.4028235e38", "3.40282356779733661637539395458142568448e38",
	"3.4028236e38", "1e39", "1.17549435e-38", "1.4e-45", "7.006e-46", "7e-46", "1e-46",
}

// TestActNumberMatchesStrconv holds number to strconv.ParseFloat(s, 32), bit
// for bit, on hand-written grammar edges, on texts around float32 midpoints
// and on a strided sweep of every finite float32 pattern printed shortest
// ('e', 'f', 'g') and with 16 and 17 significant digits. The sweep reaches
// formatter output only; the edges are the texts it cannot.
func TestActNumberMatchesStrconv(t *testing.T) {
	for _, s := range grammarEdges {
		if msg := numberMismatch([]byte(s)); msg != "" {
			t.Error(msg)
		}
	}

	// Midpoints across the positive finite range, subnormal to MaxFloat32.
	scan, viaStrconv := 0, 0
	for b := uint32(1); b < 0x7f7fffff; b += 0x7f7fffff / 30011 {
		for _, s := range nearMidpoints(math.Float32frombits(b)) {
			if msg := numberMismatch([]byte(s)); msg != "" {
				t.Fatal(msg)
			}
			if _, _, slow := number([]byte(s), 0); slow {
				viaStrconv++
			} else {
				scan++
			}
		}
	}
	if scan == 0 || viaStrconv == 0 {
		t.Fatalf("near-midpoint texts: %d rounded in the scan, %d by strconv; want both", scan, viaStrconv)
	}

	stride := *actNumberStride
	if stride == 0 {
		t.Fatal("-actnumber.stride 0")
	}
	if testing.Short() {
		stride = max(stride, 65521)
	}
	start := time.Now()
	workers := runtime.GOMAXPROCS(0)
	var (
		mu         sync.Mutex
		mismatches int
		first      string
		wg         sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bad, msg := 0, ""
			var buf []byte
			check := func(s []byte) {
				if m := numberMismatch(s); m != "" {
					if bad == 0 {
						msg = m
					}
					bad++
				}
			}
			for p := uint64(w) * stride; p < 1<<32; p += uint64(workers) * stride {
				x := math.Float32frombits(uint32(p))
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					continue
				}
				for _, verb := range []byte{'e', 'f', 'g'} {
					buf = strconv.AppendFloat(buf[:0], float64(x), verb, -1, 32)
					check(buf)
				}
				for _, prec := range []int{15, 16} {
					buf = strconv.AppendFloat(buf[:0], float64(x), 'e', prec, 64)
					check(buf)
				}
			}
			mu.Lock()
			if mismatches == 0 {
				first = msg
			}
			mismatches += bad
			mu.Unlock()
		}()
	}
	wg.Wait()
	t.Logf("stride %d: %d of 2^32 patterns, 5 texts each, %d mismatches in %v", stride, (1<<32+stride-1)/stride, mismatches, time.Since(start))
	if mismatches > 0 {
		t.Errorf("%d texts where number and strconv part; first: %s", mismatches, first)
	}
}
