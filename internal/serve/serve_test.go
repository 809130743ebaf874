package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"

	_ "dronerl/internal/hw" // register the quant backend
)

// freshPolicy builds a NavNet, initializes it from seed, and returns its
// snapshot together with a reference network that stays untouched by the
// server — the oracle for bit-identity assertions.
func freshPolicy(t *testing.T, seed int64) (*nn.Snapshot, *nn.Network) {
	t.Helper()
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(seed)))
	return nn.TakeSnapshot(net, spec.Name), net
}

// randObs returns one flat NavNet observation.
func randObs(rng *rand.Rand) []float32 {
	obs := make([]float32, nn.NavNetInput*nn.NavNetInput)
	for i := range obs {
		obs[i] = rng.Float32()
	}
	return obs
}

// forwardQ runs obs through the reference network and copies the Q-row out.
func forwardQ(net *nn.Network, obs []float32) []float32 {
	in := tensor.FromSlice(append([]float32(nil), obs...), 1, nn.NavNetInput, nn.NavNetInput)
	return append([]float32(nil), net.Forward(in).Data()...)
}

func TestConfigValidation(t *testing.T) {
	snap, _ := freshPolicy(t, 1)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"missing snapshot", Config{}, "Snapshot is required"},
		{"unknown backend", Config{Snapshot: snap, Backend: "tpu"}, `unknown backend "tpu"`},
		{"negative workers", Config{Snapshot: snap, Workers: -1}, "workers"},
		{"negative queue", Config{Snapshot: snap, QueueDepth: -1}, "queue depth"},
		{"negative batch", Config{Snapshot: snap, MaxBatch: -1}, "max batch"},
	}
	for _, tc := range cases {
		if _, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	wrongArch, _ := freshPolicy(t, 2)
	wrongArch.Arch = "ModifiedAlexNet"
	if _, err := New(Config{Snapshot: wrongArch}); err == nil || !strings.Contains(err.Error(), "ModifiedAlexNet") {
		t.Errorf("wrong-arch snapshot: error %v, want the offending architecture named", err)
	}
}

// TestBatchingDeterminism is the bit-identity claim of the batcher: a burst
// coalesced into large batches answers exactly what single-flight Forward
// answers, and the burst really was batched.
func TestBatchingDeterminism(t *testing.T) {
	snap, ref := freshPolicy(t, 3)
	s, err := New(Config{
		Snapshot: snap, Workers: 1, MaxBatch: 16,
		BatchWindow: 50 * time.Millisecond, QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Enqueue the whole burst before any worker exists, so the first batch
	// must coalesce it.
	const burst = 16
	rng := rand.New(rand.NewSource(4))
	obs := make([][]float32, burst)
	replies := make([]Reply, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		obs[i] = randObs(rng)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = s.Infer(context.Background(), obs[i])
		}(i)
	}
	for len(s.queue) < burst {
		time.Sleep(time.Millisecond)
	}
	s.Start()
	wg.Wait()

	for i := 0; i < burst; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := forwardQ(ref, obs[i])
		for j, v := range replies[i].Q {
			if v != want[j] {
				t.Fatalf("request %d: Q[%d] = %v, want %v (batched reply must be bit-identical to single-flight)",
					i, j, v, want[j])
			}
		}
		if replies[i].Batch != burst {
			t.Errorf("request %d carried batch size %d, want %d", i, replies[i].Batch, burst)
		}
		if replies[i].PolicyVersion != 1 {
			t.Errorf("request %d: policy version %d, want 1", i, replies[i].PolicyVersion)
		}
	}
	st := s.Stats()
	if st.Batches != 1 || st.BatchHist[burst] != 1 {
		t.Errorf("batches %d hist %v, want exactly one batch of %d", st.Batches, st.BatchHist, burst)
	}
	if st.Served != burst {
		t.Errorf("served %d, want %d", st.Served, burst)
	}
	if st.BatchSource != "float/InferBatch" {
		t.Errorf("batch source %q, want float/InferBatch", st.BatchSource)
	}
	if st.BatchedBatches != 1 || st.SerialBatches != 0 {
		t.Errorf("kernel attribution batched=%d serial=%d, want the burst on the batched kernel",
			st.BatchedBatches, st.SerialBatches)
	}
}

// TestBackpressure fills the bounded queue and checks the next request is
// rejected immediately with ErrQueueFull, then that the queue drains cleanly
// once workers start.
func TestBackpressure(t *testing.T) {
	snap, _ := freshPolicy(t, 5)
	s, err := New(Config{Snapshot: snap, Workers: 1, MaxBatch: 4, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(6))
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		obs := randObs(rng)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Infer(context.Background(), obs)
		}(i)
	}
	for len(s.queue) < 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Infer(context.Background(), randObs(rand.New(rand.NewSource(7)))); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow request returned %v, want ErrQueueFull", err)
	}
	s.Start()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("queued request %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Rejected != 1 || st.Served != 2 {
		t.Errorf("rejected %d served %d, want 1 and 2", st.Rejected, st.Served)
	}
}

// TestCloseDrains checks shutdown semantics: everything admitted before
// Close gets a real answer, everything after gets ErrClosed, and Close
// returns only once the queue is empty.
func TestCloseDrains(t *testing.T) {
	snap, ref := freshPolicy(t, 8)
	s, err := New(Config{Snapshot: snap, Workers: 2, MaxBatch: 8, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	const n = 12
	obs := make([][]float32, n)
	replies := make([]Reply, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		obs[i] = randObs(rng)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = s.Infer(context.Background(), obs[i])
		}(i)
	}
	for len(s.queue) < n {
		time.Sleep(time.Millisecond)
	}
	s.Start()
	s.Close()

	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("admitted request %d failed: %v (Close must drain, not drop)", i, errs[i])
		}
		want := forwardQ(ref, obs[i])
		for j, v := range replies[i].Q {
			if v != want[j] {
				t.Fatalf("request %d: Q[%d] = %v, want %v", i, j, v, want[j])
			}
		}
	}
	if _, err := s.Infer(context.Background(), obs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close Infer returned %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestQuantBackendServes runs the pool on the quant backend: replies carry
// real Q-values and the modeled per-inference hardware cost lands in the
// stats and the device ledger.
func TestQuantBackendServes(t *testing.T) {
	snap, _ := freshPolicy(t, 10)
	s, err := New(Config{Snapshot: snap, Backend: "quant", Workers: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Start()

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		rep, err := s.Infer(context.Background(), randObs(rng))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Action < 0 || rep.Action >= len(rep.Q) {
			t.Fatalf("action %d out of range for %d Q-values", rep.Action, len(rep.Q))
		}
	}
	st := s.Stats()
	if st.Inferences != 4 {
		t.Errorf("modeled inferences %d, want 4", st.Inferences)
	}
	if st.ModeledEnergyMJ <= 0 {
		t.Error("quant backend must charge modeled energy")
	}
	if len(st.Devices) == 0 || st.TotalEnergyMJ <= 0 {
		t.Errorf("device ledger empty: %+v", st.Devices)
	}
	if st.BatchSource != "quant/InferBatch" {
		t.Errorf("batch source %q, want quant/InferBatch", st.BatchSource)
	}
	// Closed-loop single client: every batch was size 1, so the per-sample
	// path served them all and the attribution says so.
	if st.BatchedBatches != 0 || st.SerialBatches != st.Batches {
		t.Errorf("kernel attribution batched=%d serial=%d of %d batches, want all serial",
			st.BatchedBatches, st.SerialBatches, st.Batches)
	}
}

// TestEachFrameChargedOnce: every admitted request's camera frame appears
// once in the /statsz ledger, whichever backend answers it — the server
// charges it at admission, or the systolic backend with its link line —
// across concurrent batches and a hot reload that retires every worker's
// backend ledger.
func TestEachFrameChargedOnce(t *testing.T) {
	const requests = 10
	want := requests * mem.FrameBytes(nn.NavNetInput, 1) * 8
	for _, backend := range []string{"float", "quant", "systolic"} {
		snap, _ := freshPolicy(t, 13)
		s, err := New(Config{Snapshot: snap, Backend: backend, Workers: 2, MaxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		rng := rand.New(rand.NewSource(14))
		var wg sync.WaitGroup
		for i := range requests {
			obs := randObs(rng)
			if i == requests/2 {
				wg.Wait()
				if _, err := s.Reload(snap); err != nil {
					t.Fatal(err)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Infer(context.Background(), obs); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		s.Close()
		if got := s.Stats().Devices["DRAM"].ReadBits; got != want {
			t.Errorf("%s: %d requests charged %d DRAM read bits, want %d (one frame each)", backend, requests, got, want)
		}
	}
}

// TestInferRejectsBadObservation checks the shape guard.
func TestInferRejectsBadObservation(t *testing.T) {
	snap, _ := freshPolicy(t, 12)
	s, err := New(Config{Snapshot: snap})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Infer(context.Background(), make([]float32, 7)); !errors.Is(err, ErrBadObservation) {
		t.Fatalf("short observation returned %v, want ErrBadObservation", err)
	}
}
