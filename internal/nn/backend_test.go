package nn

import (
	"math/rand"
	"strings"
	"testing"

	"dronerl/internal/tensor"
)

func TestBackendRegistry(t *testing.T) {
	if !HasBackend("float") {
		t.Fatal("float backend must self-register")
	}
	if err := RegisterBackend("float", func(*Network, ArchSpec, Config) (Backend, error) {
		return nil, nil
	}); err == nil {
		t.Error("duplicate registration must fail")
	}
	if err := RegisterBackend("", func(*Network, ArchSpec, Config) (Backend, error) {
		return nil, nil
	}); err == nil {
		t.Error("empty name must fail")
	}
	if err := RegisterBackend("nil-builder", nil); err == nil {
		t.Error("nil builder must fail")
	}
	if _, err := NewBackendFor("no-such-backend", nil, ArchSpec{}, L3); err == nil {
		t.Error("unknown backend must fail")
	} else if !strings.Contains(err.Error(), "no-such-backend") {
		t.Errorf("error %v does not name the missing backend", err)
	}
	names := BackendNames()
	seen := false
	for _, n := range names {
		if n == "float" {
			seen = true
		}
	}
	if !seen {
		t.Errorf("BackendNames %v missing float", names)
	}
}

// TestFloatBackendBitIdentical asserts the float backend reproduces the
// direct forward path exactly — every Q-value, every tie — which is what
// keeps WithBackend(Float) experiments byte-for-byte equal to historical
// runs.
func TestFloatBackendBitIdentical(t *testing.T) {
	spec := NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(7)))
	b, err := NewBackendFor("float", net, spec, L3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "float" {
		t.Errorf("name %q", b.Name())
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		obs := tensor.New(1, NavNetInput, NavNetInput)
		obs.RandUniform(rng, 1)
		want := net.Forward(obs.Clone())
		got := b.Infer(obs)
		if len(got) != want.Len() {
			t.Fatalf("Infer returned %d values, want %d", len(got), want.Len())
		}
		for i, v := range got {
			if v != want.Data()[i] {
				t.Fatalf("trial %d: Q[%d] = %v, want %v (must be bit-identical)", trial, i, v, want.Data()[i])
			}
		}
	}
	// The float backend has no cost model.
	if c := b.Cost(); c != (BackendCost{}) {
		t.Errorf("float backend charged %+v", c)
	}
}

// TestFloatBackendInferBatchBitIdentical asserts the batched-inference hook
// returns, row for row, exactly what B single-sample Infer calls return —
// the contract that lets the serving batcher coalesce requests without
// changing a single reply bit.
func TestFloatBackendInferBatchBitIdentical(t *testing.T) {
	spec := NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(21)))
	b, err := NewBackendFor("float", net, spec, E2E)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	actions := spec.FCs[len(spec.FCs)-1].Out
	for _, batch := range []int{1, 3, 8} {
		stack := tensor.New(batch, 1, NavNetInput, NavNetInput)
		stack.RandUniform(rng, 1)
		n := NavNetInput * NavNetInput
		// Snapshot the per-sample answers first: InferBatch may reuse the
		// network workspaces the single-sample path also touches.
		want := make([][]float32, batch)
		for s := 0; s < batch; s++ {
			obs := tensor.FromSlice(append([]float32(nil), stack.Data()[s*n:(s+1)*n]...),
				1, NavNetInput, NavNetInput)
			want[s] = append([]float32(nil), b.Infer(obs)...)
		}
		got := b.InferBatch(stack)
		if len(got) != batch*actions {
			t.Fatalf("batch %d: InferBatch returned %d values, want %d", batch, len(got), batch*actions)
		}
		for s := 0; s < batch; s++ {
			for i := 0; i < actions; i++ {
				if got[s*actions+i] != want[s][i] {
					t.Fatalf("batch %d sample %d: Q[%d] = %v, want %v (must be bit-identical)",
						batch, s, i, got[s*actions+i], want[s][i])
				}
			}
		}
	}
}
