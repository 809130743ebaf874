package tensor

import (
	"runtime"
	"sync"
)

// parallelFlops is the number of fused multiply-adds below which a float
// kernel runs on the calling goroutine only. The rule is measured, with one
// level of parallelism in mind: a kernel fans out only where no outer level
// (actors, serve workers, experiment workers) already fills the cores. That
// is the E2E learner's batch-32 convs and FC1, 1.8M–4.2M multiply-adds,
// where the actors wait on the learner and a core is idle: on two vCPUs the
// online-e2e workload ran 16 % faster with them fanned out than with no
// fan-out at all. Everything smaller (the L3 learner's FC tail, whose FC2 is
// 32·128·64 = 1<<18, and MetaTrain's batch-4 layers) shares its cores with
// the actors: online-l3 ran 25 % faster with those serial. The int16 GEMM
// never fans out (MatMul16T).
const parallelFlops = 1 << 20

// serialRows reports whether a kernel over n rows and the given
// multiply-add estimate should run on the calling goroutine. Kernel entry
// points branch on it before constructing the closure parallelRows needs, so
// the serial schedule allocates nothing.
func serialRows(n, flops int) bool {
	return n <= 1 || flops < parallelFlops || runtime.GOMAXPROCS(0) <= 1
}

// parallelRows splits the row range [0, n) into contiguous chunks and runs
// fn(lo, hi) for each chunk concurrently. Every output row is owned by
// exactly one chunk and each chunk performs the same arithmetic in the same
// order as the serial loop, so results are bit-identical to fn(0, n)
// regardless of GOMAXPROCS or scheduling. Callers gate on serialRows first;
// called below the threshold it still degrades gracefully to a direct call.
func parallelRows(n int, fn func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
