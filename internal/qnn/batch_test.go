package qnn

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// Compile-time pin: the quant backend answers the serving batcher's
// coalesced path.
var _ nn.BatchInferrer = (*Backend)(nil)

// scenarioObs flies count random actions in the named catalog world and
// returns the depth observations along the way — realistic inputs for the
// bit-identity sweep, not just uniform noise.
func scenarioObs(t *testing.T, name string, count int, seed int64) []*tensor.Tensor {
	t.Helper()
	sc, ok := env.LookupScenario(name)
	if !ok {
		t.Fatalf("scenario %q vanished from the catalog", name)
	}
	w := sc.Build(seed)
	w.Spawn()
	rng := rand.New(rand.NewSource(seed + 1))
	obs := make([]*tensor.Tensor, 0, count)
	obs = append(obs, env.DepthImage(w.Depths(), w.Camera.MaxRange))
	for len(obs) < count {
		res := w.Step(env.Action(rng.Intn(env.NumActions)))
		obs = append(obs, env.DepthImage(res.Depths, w.Camera.MaxRange))
	}
	return obs
}

// TestQuantInferBatchBitIdentical asserts the engine returns, word for word,
// exactly what the scalar reference (serial_test.go: one sample at a time,
// one int64 sum per word with the bias at product scale, one saturation)
// returns — on every builtin scenario's observations, across batch sizes
// {1, 8, 32}, for the lone frame (Infer) as for the stack (InferBatch). Q-values
// are the output words dequantized, an exact and injective map, so equal
// Q-value bits are equal words. This pins the wrap-around-kernel vs int64
// accumulation argument (train.go) on real depth images.
func TestQuantInferBatchBitIdentical(t *testing.T) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(31)))
	b, err := NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	actions := spec.FCs[len(spec.FCs)-1].Out
	row := env.ImageSize * env.ImageSize

	for si, name := range env.ScenarioNames() {
		obs := scenarioObs(t, name, 32, int64(100+si))
		want := make([][]float32, len(obs))
		for s, o := range obs {
			want[s] = serialForward(b.net, o)
			if got := b.Infer(o); !slices.Equal(got, want[s]) {
				t.Fatalf("%s sample %d: lone frame Q %v, scalar reference %v", name, s, got, want[s])
			}
		}
		for _, bsz := range []int{1, 8, 32} {
			stack := tensor.New(bsz, 1, env.ImageSize, env.ImageSize)
			for s := 0; s < bsz; s++ {
				copy(stack.Data()[s*row:(s+1)*row], obs[s].Data())
			}
			gotQ := b.InferBatch(stack)
			if len(gotQ) != bsz*actions {
				t.Fatalf("%s batch %d: InferBatch returned %d values, want %d", name, bsz, len(gotQ), bsz*actions)
			}
			for s := 0; s < bsz; s++ {
				if got := gotQ[s*actions : (s+1)*actions]; !slices.Equal(got, want[s]) {
					t.Fatalf("%s batch %d sample %d: Q %v, want %v (must be bit-identical)", name, bsz, s, got, want[s])
				}
			}
		}
	}
}

// TestQuantForwardBatchZeroAlloc asserts the steady-state allocation
// contract of the integer pass: after warm-up, InferBatch touches only the
// workspace, and so does a lone frame through Infer, the batch of one. Pinned on the single-threaded schedule — above the flops threshold the
// GEMM's row fan-out allocates goroutine closures, the same caveat the float
// arena documents.
func TestQuantForwardBatchZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(51)))
	b, err := NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	stack := tensor.New(8, 1, env.ImageSize, env.ImageSize)
	stack.RandUniform(rand.New(rand.NewSource(52)), 1)
	b.InferBatch(stack) // warm-up sizes every slot
	if allocs := testing.AllocsPerRun(10, func() {
		b.InferBatch(stack)
	}); allocs != 0 {
		t.Errorf("steady-state InferBatch allocates %v times per call, want 0", allocs)
	}
	one := tensor.New(1, env.ImageSize, env.ImageSize)
	one.RandUniform(rand.New(rand.NewSource(53)), 1)
	b.Infer(one)
	if allocs := testing.AllocsPerRun(10, func() { b.Infer(one) }); allocs != 0 {
		t.Errorf("steady-state Infer allocates %v times per lone frame, want 0", allocs)
	}
}

// inferGolden hashes what Backend.Infer answers, frame by frame, for 16
// frames of every builtin scenario and 32 dense uniform frames (the serving
// benchmark's kind): start covers the compiled words and the frames' float
// bits, final every Q-value's float bits.
func inferGolden(t *testing.T, net *nn.Network) (start, final string) {
	b, err := NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*tensor.Tensor
	for si, name := range env.ScenarioNames() {
		frames = append(frames, scenarioObs(t, name, 16, int64(300+si))...)
	}
	rng := rand.New(rand.NewSource(301))
	for i := 0; i < 32; i++ {
		f := tensor.New(1, env.ImageSize, env.ImageSize)
		for j := range f.Data() {
			f.Data()[j] = rng.Float32()
		}
		frames = append(frames, f)
	}
	hs, hf := sha256.New(), sha256.New()
	hashOnline(hs, b.net)
	for _, f := range frames {
		for _, v := range f.Data() {
			hashU64(hs, uint64(math.Float32bits(v)))
		}
		for _, q := range b.Infer(f) {
			hashU64(hf, uint64(math.Float32bits(q)))
		}
	}
	return hex.EncodeToString(hs.Sum(nil)), hex.EncodeToString(hf.Sum(nil))
}

// TestQuantInferGolden pins Backend.Infer bit for bit, on a fresh-init and
// on the meta-trained NavNet. The init hash was captured at fd6fe34 from the
// per-sample, per-MAC-saturating engine and still holds: a fresh net's biases
// are zero, where the two epilogue contracts agree. The meta hash was
// re-captured once when serving moved onto the training engine's walk and
// its Narrow64 epilogue, the bias joined in 64 bits (EXPERIMENTS.md, "One
// integer engine"). As in TestTrainBackendGolden, the meta start is
// float work and is excused where the compiler fuses multiply-adds; scenario
// frames come out of float ray casting, so the init pin is guarded by its
// start hash the same way.
func TestQuantInferGolden(t *testing.T) {
	for _, tc := range []struct {
		name        string
		net         *nn.Network
		start, want string
	}{
		{"init", trainedNavNet(79), "b2524c1da6efd71cdb372f28ed019efb196ff0e17c59d23ab51bfc4c043fdf07", "9e339f5cd030930ff6bdd8a8640ed1f3fe98ccad24a84758840c42aadd6e8f51"},
		{"meta", metaTrainedNavNet()(), "1b5d3fe1ead36789742c74cb499a4cddd6cde12ecde51e40732f52b85311ba1d", "2057613b171dafe0773fc9d07ca3d2007e9931a712dc1786ebf43e64a09306e0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start, got := inferGolden(t, tc.net)
			if start != tc.start {
				if runtime.GOARCH != "amd64" {
					t.Skipf("float meta-training and ray casting round differently on %s (fused multiply-add): start %s, pinned %s",
						runtime.GOARCH, start, tc.start)
				}
				t.Fatalf("the frames or the quantizer moved, not the engine: start %s, pinned %s", start, tc.start)
			}
			if got != tc.want {
				t.Fatalf("Infer is no longer bit-identical to the pinned engine: got %s, want %s", got, tc.want)
			}
		})
	}
}

// TestQuantGreedyAgreesWithFloat measures what serving in the training
// engine's words does to decisions: on the meta-trained NavNet, over 64
// frames of every catalog scenario, how often the quant backend's greedy
// action equals the float net's, per scenario, and how many Q words quant and
// quant-train (L3) share. `go test -run TestQuantGreedyAgreesWithFloat -v
// ./internal/qnn` prints the table EXPERIMENTS.md ("One integer engine")
// records. Near-ties may flip, so the bound is on the whole catalog: at least
// 90 % of frames agree, and every word is shared.
func TestQuantGreedyAgreesWithFloat(t *testing.T) {
	net := metaTrainedNavNet()()
	net.SetConfig(nn.L3)
	qb, err := NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTrainBackend(net, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	argmax := func(q []float32) int {
		best := 0
		for i, v := range q {
			if v > q[best] {
				best = i
			}
		}
		return best
	}
	agree, frames, words, shared := 0, 0, 0, 0
	var absErr float64
	for si, name := range env.ScenarioNames() {
		n := 0
		obs := scenarioObs(t, name, 64, int64(900+si))
		for _, o := range obs {
			q := qb.Infer(o)
			ref := net.Forward(o.Clone())
			if argmax(q) == ref.ArgMax() {
				n++
			}
			for i, v := range q {
				absErr += math.Abs(float64(v - ref.At(i)))
			}
			for i, v := range tb.Infer(o) {
				if v == q[i] {
					shared++
				}
				words++
			}
		}
		t.Logf("| `%s` | %d / %d |", name, n, len(obs))
		agree, frames = agree+n, frames+len(obs)
	}
	t.Logf("| all | %d / %d | words shared with quant-train: %d / %d | mean |Q - float Q| %.5f |", agree, frames, shared, words, absErr/float64(words))
	if agree*10 < frames*9 {
		t.Errorf("quant picks the float net's action on %d of %d frames, want at least 90 %%", agree, frames)
	}
	if shared != words {
		t.Errorf("quant and quant-train share %d of %d Q words, want all", shared, words)
	}
}
