package main

import (
	"math"
	"sort"
	"time"
)

// stat is one reported value with the spread of its samples beside it, so a
// reader can tell a steady number from a lucky one. Value is what the metric
// reports: for a timing or a rate a quantile on the fast side of its samples
// (see fastDecile, fastQuartile), for anything else their median.
type stat struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"samples"`
}

// summarize reduces samples (segments, repetitions) to a stat. It sorts a
// copy; the caller's order survives.
func summarize(samples []float64) stat {
	return summarizeAt(samples, 0.5)
}

func summarizeAt(samples []float64, q float64) stat {
	if len(samples) == 0 {
		nan := math.NaN()
		return stat{Value: nan, Median: nan, Min: nan, Max: nan}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return stat{Value: quantile(s, q), Median: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// fastDecile reports the decile of the samples on their fast side. The
// sandboxes this runs in slow a process down by 10-30 % for stretches of a
// second or so and never speed it up (a two-thread spin loop timed every
// 67 ms for ten minutes: medians of 10 s windows spread up to 21 %, their
// first deciles 1-2 %), so with many short samples the fast decile tracks the
// undisturbed machine where the median tracks its neighbours. The per-layer
// probes and tiers use it.
func fastDecile(samples []float64, higherIsFaster bool) stat {
	if higherIsFaster {
		return summarizeAt(samples, 0.9)
	}
	return summarizeAt(samples, 0.1)
}

// fastQuartile is the end-to-end metrics' estimator, over segments whose
// stolen time has already been taken out (hostCPU.given). What slows a
// segment after that — a busy sibling hyperthread, a cold cache — is still
// one-sided, so the fast side still reads steadier than the median: over ten
// seeds per workload in a noisy quarter of an hour the quartile spread
// 3-14 %, the median 6-21 %, the raw median 7-45 %.
func fastQuartile(samples []float64, higherIsFaster bool) stat {
	if higherIsFaster {
		return summarizeAt(samples, 0.75)
	}
	return summarizeAt(samples, 0.25)
}

// exact is a stat for a count or a simulated value: one sample, no spread.
func exact(v float64) stat { return stat{Value: v, Median: v, Min: v, Max: v, N: 1} }

// single is a stat for one measurement standing for n underlying operations.
func single(v float64, n int) stat { return stat{Value: v, Median: v, Min: v, Max: v, N: n} }

// quantile reads the q-quantile of an ascending slice, interpolating between
// neighbours so a two-sample median is their mean.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// sortedMillis converts durations to ascending milliseconds, ready for
// quantile.
func sortedMillis(d []time.Duration) []float64 {
	f := make([]float64, len(d))
	for i, v := range d {
		f[i] = float64(v) / 1e6
	}
	sort.Float64s(f)
	return f
}

// timeOp runs f in reps groups of inner back-to-back calls and returns the
// seconds per call of each group. The first group is a discarded warm-up, so
// lazily built workspaces and cold caches do not reach the samples.
func timeOp(reps, inner int, f func()) []float64 {
	out := make([]float64, 0, reps)
	for r := 0; r <= reps; r++ {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			f()
		}
		if r > 0 {
			out = append(out, time.Since(t0).Seconds()/float64(inner))
		}
	}
	return out
}

// scaled maps per-call seconds to another unit (1e6 for µs, 1e3 for ms).
func scaled(samples []float64, k float64) stat {
	s := make([]float64, len(samples))
	for i, v := range samples {
		s[i] = v * k
	}
	return fastDecile(s, false)
}

// rate maps per-call seconds to work/second given the work of one call.
func rate(samples []float64, work float64) stat {
	s := make([]float64, len(samples))
	for i, v := range samples {
		s[i] = work / v
	}
	return fastDecile(s, true)
}
