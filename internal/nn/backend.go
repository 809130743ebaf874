package nn

import (
	"fmt"
	"sort"
	"sync"

	"dronerl/internal/tensor"
)

// A Backend executes the inference side of a trained network — the greedy
// evaluation and deployment phases — on one of the modeled compute
// substrates. The paper's co-design argument is exactly that the same
// policy costs wildly different energy and latency depending on the
// substrate: float math on a host CPU, 16-bit fixed-point arithmetic
// (internal/qnn), or that same arithmetic priced on the STT-MRAM-backed
// systolic array (internal/hw). Backends make that choice a first-class,
// per-experiment selection instead of a hardwired code path.
//
// Implementations register themselves by name (RegisterBackend); the float
// reference lives here, and internal/hw registers the quantized engine of
// internal/qnn ("quant", "quant-train") and the systolic array, all priced
// off one price list, so the higher layers select backends without
// depending on any particular implementation.
type Backend interface {
	// Name identifies the backend ("float", "quant", "systolic").
	Name() string
	// Infer returns the Q-values for one CHW observation. The returned
	// slice may be reused by the next Infer call — copy it to keep it.
	Infer(obs *tensor.Tensor) []float32
	// InferBatch returns the B*actions Q-values, row-major, of B stacked
	// observations ((B, C, H, W), the ForwardBatch layout) in one pass per
	// layer. Every row is bit-identical to the corresponding Infer —
	// batching is a scheduling decision, never a numeric one — and like
	// Infer the returned slice may be reused by the next call.
	InferBatch(batch *tensor.Tensor) []float32
	// Cost is the accumulated modeled hardware cost of every pass so far;
	// a backend without a cost model reports the zero value.
	Cost() BackendCost
}

// BackendCost is the accumulated modeled hardware cost of a backend's
// inferences (and, for backends that price training, weight updates).
type BackendCost struct {
	// Inferences is the number of inferences charged (a batch counts its
	// rows).
	Inferences int64
	// EnergyMJ is the total modeled energy in millijoules.
	EnergyMJ float64
	// LatencyMS is the total modeled (serialized) latency in milliseconds.
	LatencyMS float64
	// Cycles is the total modeled PE-array cycle count.
	Cycles int64
}

// Add merges another cost set.
func (c *BackendCost) Add(o BackendCost) {
	c.Inferences += o.Inferences
	c.EnergyMJ += o.EnergyMJ
	c.LatencyMS += o.LatencyMS
	c.Cycles += o.Cycles
}

// Sub returns what was charged between an earlier tally o and c.
func (c BackendCost) Sub(o BackendCost) BackendCost {
	return BackendCost{c.Inferences - o.Inferences, c.EnergyMJ - o.EnergyMJ, c.LatencyMS - o.LatencyMS, c.Cycles - o.Cycles}
}

// BatchInferrer is a Backend's batched pass on its own, for callers that
// hold a value known only to batch.
type BatchInferrer interface {
	InferBatch(batch *tensor.Tensor) []float32
}

// BackendBuilder constructs a backend over a trained float network. The
// spec describes the architecture (for hardware pricing) and cfg the
// training topology (which decides SRAM vs STT-MRAM weight residency).
type BackendBuilder func(net *Network, spec ArchSpec, cfg Config) (Backend, error)

var backendRegistry = struct {
	sync.RWMutex
	m map[string]BackendBuilder
}{m: map[string]BackendBuilder{}}

// RegisterBackend adds a named backend builder to the registry. It fails on
// an empty name, a nil builder, or a name already taken — silently replacing
// a backend would let two experiments disagree about what a name means.
func RegisterBackend(name string, build BackendBuilder) error {
	if name == "" {
		return fmt.Errorf("nn: backend has no name")
	}
	if build == nil {
		return fmt.Errorf("nn: backend %q has no builder", name)
	}
	backendRegistry.Lock()
	defer backendRegistry.Unlock()
	if _, dup := backendRegistry.m[name]; dup {
		return fmt.Errorf("nn: backend %q already registered", name)
	}
	backendRegistry.m[name] = build
	return nil
}

// HasBackend reports whether a backend name is registered.
func HasBackend(name string) bool {
	backendRegistry.RLock()
	defer backendRegistry.RUnlock()
	_, ok := backendRegistry.m[name]
	return ok
}

// BackendNames returns the registered backend names, sorted.
func BackendNames() []string {
	backendRegistry.RLock()
	defer backendRegistry.RUnlock()
	names := make([]string, 0, len(backendRegistry.m))
	for name := range backendRegistry.m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewBackendFor builds the named backend over a trained network. Build it
// after training: backends that compile weights (quant, and systolic, which
// prices quant's engine) capture the weights as they are now.
func NewBackendFor(name string, net *Network, spec ArchSpec, cfg Config) (Backend, error) {
	backendRegistry.RLock()
	build := backendRegistry.m[name]
	backendRegistry.RUnlock()
	if build == nil {
		return nil, fmt.Errorf("nn: unknown backend %q (registered: %v)", name, BackendNames())
	}
	return build(net, spec, cfg)
}

// FloatBackend is the reference backend: the float32 GEMM/SIMD forward path
// of the network itself. Greedy actions through it are bit-identical to
// calling Network.Forward directly, which is what keeps experiments run
// with an explicit "float" selection byte-for-byte equal to the historical
// backend-less pipeline.
type FloatBackend struct {
	net *Network
}

// NewFloatBackend wraps a network.
func NewFloatBackend(net *Network) *FloatBackend { return &FloatBackend{net: net} }

// Name implements Backend.
func (b *FloatBackend) Name() string { return "float" }

// Infer implements Backend: one forward pass at batch one, exactly the
// computation Agent.Greedy runs without a backend.
func (b *FloatBackend) Infer(obs *tensor.Tensor) []float32 {
	return b.net.Forward(obs).Data()
}

// InferBatch implements Backend: one ForwardBatch pass — one GEMM per
// layer for the whole batch. By the layers' row contract every row equals the
// corresponding single-sample Infer, so a serving batcher can coalesce freely
// without changing any reply. The returned slice is the final layer's
// workspace: valid until the network's next pass.
func (b *FloatBackend) InferBatch(batch *tensor.Tensor) []float32 {
	return b.net.ForwardBatch(batch).Data()
}

// Cost implements Backend: the float reference has no cost model.
func (b *FloatBackend) Cost() BackendCost { return BackendCost{} }

func init() {
	if err := RegisterBackend("float", func(net *Network, _ ArchSpec, _ Config) (Backend, error) {
		return NewFloatBackend(net), nil
	}); err != nil {
		panic(err)
	}
}
