package serve

import (
	"math/rand"
	"runtime"
	"testing"

	"dronerl/internal/nn"
)

// allocTestServer builds an unstarted server whose workers can be driven
// directly: no queue, no clients, just the staging + backend path.
func allocTestServer(t testing.TB, backend string, maxBatch int) *Server {
	t.Helper()
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(71)))
	s, err := New(Config{
		Snapshot: nn.TakeSnapshot(net, spec.Name),
		Backend:  backend,
		Workers:  1,
		MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fillBatch fabricates a collected batch of b requests on the worker.
func fillBatch(w *worker, b int, rng *rand.Rand) {
	w.batch = w.batch[:0]
	for i := 0; i < b; i++ {
		obs := make([]float32, w.s.obsLen)
		for j := range obs {
			obs[j] = rng.Float32()
		}
		w.batch = append(w.batch, &request{obs: obs, reply: make(chan result, 1)})
	}
}

// TestWorkerStackZeroAlloc pins the satellite fix for the per-batch staging
// allocation: once each batch size's arena slot is warm, stacking a batch —
// any size, in any order — allocates nothing, and neither does running the
// stacked batch through the quant backend's batched kernel, nor the lone
// frame worker.run hands to Infer when nothing coalesced.
func TestWorkerStackZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // keep GEMMs on the serial schedule
	s := allocTestServer(t, "quant", 32)
	w := s.workers[0]
	rng := rand.New(rand.NewSource(72))
	sizes := []int{1, 8, 32, 8, 1, 32}
	for _, b := range sizes {
		fillBatch(w, b, rng)
		w.stack(b) // warm the slot for this size
		if allocs := testing.AllocsPerRun(10, func() { w.stack(b) }); allocs != 0 {
			t.Errorf("stack(%d) allocates %v/op after warm-up, want 0", b, allocs)
		}
	}
	// End to end through the batched kernel, sizes varying per run.
	bi := w.backend.(nn.BatchInferrer)
	for _, b := range sizes {
		fillBatch(w, b, rng)
		bi.InferBatch(w.stack(b))
	}
	i := 0
	if allocs := testing.AllocsPerRun(12, func() {
		b := sizes[i%len(sizes)]
		i++
		bi.InferBatch(w.stack(b))
	}); allocs != 0 {
		t.Errorf("stack+InferBatch allocates %v/op after warm-up, want 0", allocs)
	}
	// The batch of one, staged as worker.run stages it.
	fillBatch(w, 1, rng)
	sp := s.spec
	lone := func() {
		obs := w.arena.Get(s.cfg.MaxBatch, sp.InputC, sp.InputH, sp.InputW)
		copy(obs.Data(), w.batch[0].obs)
		w.backend.Infer(obs)
	}
	lone()
	if allocs := testing.AllocsPerRun(12, lone); allocs != 0 {
		t.Errorf("lone-frame stage+Infer allocates %v/op after warm-up, want 0", allocs)
	}
}

// BenchmarkServeWorkerBatch is the serve-path staging benchmark: stack a
// full 32-request batch from the worker arena and run it through the quant
// batched kernel, exactly what worker.run does for a coalesced batch. The
// 0 allocs/op it reports is the acceptance criterion for the staging fix.
func BenchmarkServeWorkerBatch(b *testing.B) {
	s := allocTestServer(b, "quant", 32)
	w := s.workers[0]
	fillBatch(w, 32, rand.New(rand.NewSource(73)))
	bi := w.backend.(nn.BatchInferrer)
	bi.InferBatch(w.stack(32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bi.InferBatch(w.stack(32))
	}
	b.ReportMetric(float64(32*b.N)/b.Elapsed().Seconds(), "inf/s")
}
