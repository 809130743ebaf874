package serve

import (
	"encoding/json"
	"math/rand"
	"strings"
)

// actSeed is one POST /v1/act body the decoder tests share: the fuzz corpus,
// the status-and-message table and the allocation bound all draw from it.
type actSeed struct {
	name string
	body string
}

// frameOf builds a body of n values cycling through the given number texts,
// so an edge number is parsed inside a frame the server answers 200.
func frameOf(n int, open, sep, close string, nums ...string) string {
	var b strings.Builder
	b.WriteString(open)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(nums[i%len(nums)])
	}
	b.WriteString(close)
	return b.String()
}

// edgeNumbers are valid RFC 8259 numbers whose float32 bits are easy to get
// wrong: signed zero, exponent spellings, the denormal and overflow edges,
// underflow to zero, more digits than a float32 holds, a halfway case.
var edgeNumbers = []string{
	"-0", "0", "-0.0", "0.0e-00", "1E+2", "1e2", "1.0E-2", "1e-45", "-1e-45", "1e-46",
	"1.1754944e-38", "1.1754942e-38", "3.4028235e38", "-3.4028235e+38", "3.4028234663852886e38",
	"1e-400", "123456789012345678901234567890", "0.1", "0.30000001192092896",
	"16777217", "1.00000017881393432617187500", "8.5", "0.000001", "1e-7", "9.999999e-5",
}

// actSeeds returns the corpus for a server whose observations hold frame
// values: 1024 through the handler, a handful under the fuzzer (which spends
// its whole budget minimising when a seed is kilobytes long).
func actSeeds(frame int) []actSeed {
	rng := rand.New(rand.NewSource(77))
	// The benchmark marshals map[string][]float32, serveload map[string]any.
	bench, _ := json.Marshal(map[string][]float32{"obs": randObs(rng)[:frame]})
	load, _ := json.Marshal(map[string]any{"obs": randObs(rng)[:frame]})
	full := func(open, sep, close string, nums ...string) string {
		return frameOf(frame, open, sep, close, nums...)
	}
	ones := full(`{"obs":[`, ",", "]}", "1")
	seeds := []actSeed{
		{"canonical benchmark body", string(bench)},
		{"canonical serveload body", string(load)},
		{"edge numbers in a full frame", full(`{"obs":[`, ",", "]}", edgeNumbers...)},
		{"whitespace everywhere", full(" \t\r\n{ \"obs\"\t:\n[ ", " ,\r\n ", " ]\n}\n \t", "0.25", "-1e-3")},
		{"upper-case key", full(`{"OBS":[`, ",", "]}", "1")},
		{"escaped key", full(`{"o\u0062s":[`, ",", "]}", "1")},
		{"full frame then trailing bytes", ones + " trailing"},
		{"full frame then a second value", ones + `{"obs":[2]}`},
		{"full frame, extra key after", strings.TrimSuffix(ones, "}") + `,"extra":{"a":[1,2]}}`},
		{"full frame, extra key before", `{"id":"drone-7",` + ones[1:]},
		{"duplicate obs, full frame last", `{"obs":[1],` + ones[1:]},
		{"UTF-8 BOM", "\xef\xbb\xbf" + ones},
		{"cut mid-number", string(bench[:len(bench)/2])},
		{"one value too many", full(`{"obs":[`, ",", ",1]}", "1")},
		{"five thousand values", `{"obs":[` + strings.Repeat("1,", 4999) + "1]}"},
		{"empty body", ""},
		{"whitespace only", " \n"},
		{"empty object", "{}"},
		{"empty array", `{"obs":[]}`},
		{"null obs", `{"obs":null}`},
		{"duplicate obs", `{"obs":[1],"obs":[2]}`},
		{"nested obs first", `{"x":{"obs":[1]},"obs":[2]}`},
		{"short then trailing", `{"obs":[1]} trailing`},
		{"short then extra brace", `{"obs":[1]}}`},
		{"top-level array", `[1,2]`},
		{"top-level number", `1`},
		{"not JSON", `{nope`},
		{"missing colon", `{"obs" [1]}`},
		{"missing close brace", `{"obs":[1]`},
		{"missing close bracket", `{"obs":[1}`},
		{"trailing comma", `{"obs":[1,]}`},
		{"leading comma", `{"obs":[,1]}`},
		{"missing comma", `{"obs":[1 2]}`},
		{"string element", `{"obs":["1"]}`},
		{"null element", `{"obs":[null]}`},
		{"bool element", `{"obs":[true]}`},
		{"nested element", `{"obs":[1,[2]]}`},
		{"object element", `{"obs":[{"v":1}]}`},
		{"obs is a number", `{"obs":1}`},
		{"obs is a string", `{"obs":"1,2"}`},
		{"invalid UTF-8 in key", "{\"ob\xffs\":[1]}"},
		{"control byte in key", "{\"ob\x01s\":[1]}"},
	}
	for _, num := range edgeNumbers {
		seeds = append(seeds, actSeed{"short frame " + num, `{"obs":[` + num + `]}`})
	}
	// Spellings RFC 8259 refuses, plus two numbers float32 cannot hold.
	for _, num := range []string{
		"01", "-01", "00", ".5", "-.5", "+1", "1.", "1.e2", "1e", "1e+", "1E-", "-", "--1", "1-", "1e2.5",
		"NaN", "nan", "Infinity", "-Infinity", "Inf", "0x10", "1_000", "1x", "1.5f", "١",
		"1e999", "-1e999", "3.5e38", "3.4028236e38", "1e39",
	} {
		seeds = append(seeds, actSeed{"refused number " + num, `{"obs":[` + num + `]}`})
	}
	return seeds
}
