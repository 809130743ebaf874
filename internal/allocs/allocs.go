// Package allocs holds the zero-allocation pins' counter. It is imported by
// tests only.
package allocs

import "runtime"

// PerRun returns the mean number of heap allocations per call of f over runs
// calls, after one warm-up call, at GOMAXPROCS 2. testing.AllocsPerRun forces
// GOMAXPROCS 1, so it cannot see what only a second P costs, such as a
// kernel's goroutine fan-out; the benchmark's workloads all run at
// GOMAXPROCS = cores. The mean is not rounded down, so one allocation per
// window shows. It is the least of three windows: with a second P the runtime
// now and then allocates for itself while f runs (an M for a woken P, a GC
// mark worker, a sudog), once, where an allocation of f's recurs every call.
func PerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f()
	var ms runtime.MemStats
	least := -1.0
	for range 3 {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for range runs {
			f()
		}
		runtime.ReadMemStats(&ms)
		if avg := float64(ms.Mallocs-before) / float64(runs); least < 0 || avg < least {
			least = avg
		}
	}
	return least
}
