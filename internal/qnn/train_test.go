package qnn

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dronerl/internal/allocs"
	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
)

// tinyNet is a small trainable stack for fast regression tests: the input is
// a 1x2x2 "image" flattened into two dense layers.
func tinyNet(seed int64) *nn.Network {
	net := nn.NewNetwork(
		nn.NewFlatten("FLAT"),
		nn.NewDense("FC1", 4, 8),
		nn.NewReLU("RELU1"),
		nn.NewDense("FC2", 8, 2),
	)
	net.Init(rand.New(rand.NewSource(seed)))
	return net
}

func TestCompileTrainableRejectsLRN(t *testing.T) {
	if _, err := CompileTrainable(nn.NewNetwork(nn.NewLRN("norm")), TrainOptions{}); err == nil {
		t.Fatal("expected LRN rejection")
	}
}

// TestTrainNetworkForwardCloseToFloat bounds the quantization error of the
// training engine's forward pass against the float reference on the tiny
// stack: with Q7.8 activations and Q2.13 weights the output should sit
// within a few activation LSBs of the float value.
func TestTrainNetworkForwardCloseToFloat(t *testing.T) {
	net := tinyNet(3)
	tn, err := CompileTrainable(net, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 16; trial++ {
		in := make([]float32, 4)
		for i := range in {
			in[i] = rng.Float32()
		}
		q := tn.Forward(in, [3]int{1, 2, 2})
		x := tensor.New(1, 2, 2)
		copy(x.Data(), in)
		ref := net.Forward(x).Data()
		for i := range ref {
			if d := math.Abs(float64(q[i] - ref[i])); d > 0.05 {
				t.Fatalf("trial %d output %d: quant %v vs float %v (|d|=%v)", trial, i, q[i], ref[i], d)
			}
		}
	}
}

// TestTrainNetworkRegression drives the integer engine's full
// forward/backward/update loop on a fixed regression target and requires the
// squared error to collapse: the engine must be able to learn, not merely
// run.
func TestTrainNetworkRegression(t *testing.T) {
	tn, err := CompileTrainable(tinyNet(5), TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := []float32{0.3, -0.4, 0.9, 0.1}
	target := []float32{0.8, -0.5}
	loss := func() float64 {
		q := tn.Forward(in, [3]int{1, 2, 2})
		var l float64
		for i, v := range q {
			d := float64(v - target[i])
			l += d * d
		}
		return l
	}
	initial := loss()
	grad := make([]float32, 2)
	for step := 0; step < 400; step++ {
		q := tn.Forward(in, [3]int{1, 2, 2})
		for i := range grad {
			grad[i] = q[i] - target[i]
		}
		tn.Backward(grad)
		tn.Update(0.05, 1, 1)
	}
	final := loss()
	if final > initial/10 || final > 0.01 {
		t.Fatalf("regression did not converge: initial %v, final %v", initial, final)
	}
}

// TestTrainNetworkBitReproducible asserts the fixed-seed contract: two
// engines compiled from the same float network with the same TrainOptions
// produce bit-identical weight words after an identical training schedule.
func TestTrainNetworkBitReproducible(t *testing.T) {
	run := func() *Network {
		tn, err := CompileTrainable(tinyNet(9), TrainOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		in := make([]float32, 4)
		grad := make([]float32, 2)
		for step := 0; step < 50; step++ {
			for i := range in {
				in[i] = rng.Float32()*2 - 1
			}
			q := tn.Forward(in, [3]int{1, 2, 2})
			for i := range grad {
				grad[i] = q[i] - 0.5
			}
			tn.Backward(grad)
			tn.Update(0.01, 1, 1)
		}
		return tn
	}
	a, b := run(), run()
	for i := range a.layers {
		aw, ab := layerWeights(a.layers[i])
		bw, bb := layerWeights(b.layers[i])
		for j := range aw {
			if aw[j] != bw[j] {
				t.Fatalf("layer %d weight %d: %d vs %d", i, j, aw[j], bw[j])
			}
		}
		for j := range ab {
			if ab[j] != bb[j] {
				t.Fatalf("layer %d bias %d: %d vs %d", i, j, ab[j], bb[j])
			}
		}
	}
}

// TestTrainNetworkFrozenPrefix compiles NavNet under the L2 transfer
// topology and asserts the boundary contract: updates leave every frozen
// layer's integer words untouched, gradients still reach the trainable tail,
// and WriteBack leaves the frozen float weights bit-identical.
func TestTrainNetworkFrozenPrefix(t *testing.T) {
	net := trainedNavNet(13)
	net.SetConfig(nn.L2)
	tn, err := CompileTrainable(net, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tn.trainFrom != net.TrainFrom() {
		t.Fatalf("trainFrom %d, want %d", tn.trainFrom, net.TrainFrom())
	}
	frozenBefore := make([][]int16, tn.trainFrom)
	for i := 0; i < tn.trainFrom; i++ {
		if w, _ := layerWeights(tn.layers[i]); w != nil {
			frozenBefore[i] = append([]int16(nil), w...)
		}
	}
	floatFrozen := make([][]float32, tn.trainFrom)
	for i := 0; i < tn.trainFrom; i++ {
		if c, ok := net.Layers[i].(*nn.Conv2D); ok {
			floatFrozen[i] = append([]float32(nil), c.Weight.W.Data()...)
		}
	}
	lastW, _ := layerWeights(tn.layers[len(tn.layers)-1])
	lastBefore := append([]int16(nil), lastW...)

	in := depthImage(17).Data()
	grad := make([]float32, nn.NavNetActions)
	for step := 0; step < 8; step++ {
		q := tn.Forward(in, [3]int{1, nn.NavNetInput, nn.NavNetInput})
		for i := range grad {
			grad[i] = q[i] - 0.25
		}
		tn.Backward(grad)
		tn.Update(0.05, 1, 1)
	}
	for i, before := range frozenBefore {
		if before == nil {
			continue
		}
		w, _ := layerWeights(tn.layers[i])
		for j := range before {
			if w[j] != before[j] {
				t.Fatalf("frozen layer %d weight %d changed", i, j)
			}
		}
	}
	changed := false
	for j := range lastBefore {
		if lastW[j] != lastBefore[j] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("trainable tail weights did not change")
	}
	if err := tn.WriteBack(net); err != nil {
		t.Fatal(err)
	}
	for i, before := range floatFrozen {
		if before == nil {
			continue
		}
		c := net.Layers[i].(*nn.Conv2D)
		for j := range before {
			if c.Weight.W.Data()[j] != before[j] {
				t.Fatalf("WriteBack touched frozen float layer %d", i)
			}
		}
	}
}

// TestTrainBackendTDStep drives the nn.TrainableBackend implementation with
// a synthetic TD minibatch and checks the observable contract: a finite
// batch-mean TD error, one counted step, and the float mirror updated in
// place.
func TestTrainBackendTDStep(t *testing.T) {
	net := trainedNavNet(19)
	b, err := NewTrainBackend(net, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const batch, chw = 3, nn.NavNetInput * nn.NavNetInput
	states := tensor.New(batch, 1, nn.NavNetInput, nn.NavNetInput)
	nexts := tensor.New(batch, 1, nn.NavNetInput, nn.NavNetInput)
	rng := rand.New(rand.NewSource(23))
	for i := range states.Data() {
		states.Data()[i] = rng.Float32()
		nexts.Data()[i] = rng.Float32()
	}
	// One terminal row: its next-state must contribute no bootstrap.
	for j := 2 * chw; j < 3*chw; j++ {
		nexts.Data()[j] = 0
	}
	fcBefore := append([]float32(nil), net.Layers[len(net.Layers)-1].(*nn.Dense).Weight.W.Data()...)
	mse := b.Train(nn.TrainBatch{
		States:  states,
		Nexts:   nexts,
		Actions: []int{0, 2, 1},
		Rewards: []float64{0.1, -0.2, 1},
		Done:    []bool{false, false, true},
		Gamma:   0.95,
		LR:      0.01,
	})
	if mse < 0 || math.IsNaN(mse) {
		t.Fatalf("bad mse %v", mse)
	}
	if b.Steps() != 1 {
		t.Fatalf("steps %d, want 1", b.Steps())
	}
	fcAfter := net.Layers[len(net.Layers)-1].(*nn.Dense).Weight.W.Data()
	changed := false
	for i := range fcBefore {
		if fcAfter[i] != fcBefore[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("float mirror not updated by Train")
	}
}

// goldenNet is one starting point of the golden schedule: a float NavNet and
// the pool of frames its TD minibatches are drawn from.
type goldenNet struct {
	net  func() *nn.Network
	pool [][]float32
}

// metaTrainedNavNet is a factory of NavNets restored from one seeded
// end-to-end meta-training run on the indoor meta-environment — the weights
// a deployed drone starts its online phase from. Trained once per test
// binary.
var metaTrainedNavNet = sync.OnceValue(func() func() *nn.Network {
	const seed, iters = 5, 150
	spec := nn.NavNetSpec()
	agent := rl.NewAgent(spec, nn.E2E, rl.Options{Seed: seed, BatchSize: 4, EpsDecaySteps: iters / 2})
	(&rl.OnlineLoop{Agent: agent, Worlds: []*env.World{env.IndoorMeta(seed)}}).Run(context.Background(), iters)
	snap := nn.TakeSnapshot(agent.Net, spec.Name)
	return func() *nn.Network {
		net := spec.Build()
		if err := snap.Restore(net); err != nil {
			panic(err)
		}
		return net
	}
})

// goldenMeta is the deployed shape of the golden schedule: meta-trained
// weights and real depth frames. Both come out of float arithmetic (SGD, ray
// casting), which compilers that fuse multiply-adds (arm64) round
// differently, so its start hash guards the pins.
func goldenMeta(t *testing.T) goldenNet {
	g := goldenNet{net: metaTrainedNavNet()}
	for _, o := range scenarioObs(t, "indoor-apartment", 96, 77) {
		g.pool = append(g.pool, o.Data())
	}
	return g
}

// goldenInit is the architecture-independent twin: seeded initial weights
// and uniform noise frames, nothing but math/rand and integer arithmetic
// from end to end.
func goldenInit() goldenNet {
	rng := rand.New(rand.NewSource(78))
	noise := make([][]float32, 96)
	for i := range noise {
		noise[i] = make([]float32, env.ImageSize*env.ImageSize)
		for j := range noise[i] {
			noise[i][j] = rng.Float32()
		}
	}
	return goldenNet{net: func() *nn.Network { return trainedNavNet(79) }, pool: noise}
}

func hashWords[T ~int16](h hash.Hash, ws []T) {
	var buf [2]byte
	for _, w := range ws {
		binary.LittleEndian.PutUint16(buf[:], uint16(w))
		h.Write(buf[:])
	}
}

func hashU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// hashOnline folds every online weight and bias word, in layer order.
func hashOnline(h hash.Hash, tn *Network) {
	for _, l := range tn.layers {
		w, b := layerWeights(l)
		hashWords(h, w)
		hashWords(h, b)
	}
}

const (
	goldenBatch = 32
	goldenSteps = 12
	goldenSync  = 4
)

// goldenBatchAt draws step's minibatch from the pool: consecutive frames as
// (state, next), every seventh row terminal with a zeroed next, as
// rl.Agent.TrainStep stacks them.
func goldenBatchAt(rng *rand.Rand, pool [][]float32) nn.TrainBatch {
	chw := len(pool[0])
	tb := nn.TrainBatch{
		States:  tensor.New(goldenBatch, 1, env.ImageSize, env.ImageSize),
		Nexts:   tensor.New(goldenBatch, 1, env.ImageSize, env.ImageSize),
		Actions: make([]int, goldenBatch),
		Rewards: make([]float64, goldenBatch),
		Done:    make([]bool, goldenBatch),
		Gamma:   0.95,
		LR:      0.01,
	}
	for s := 0; s < goldenBatch; s++ {
		i := rng.Intn(len(pool) - 1)
		copy(tb.States.Data()[s*chw:(s+1)*chw], pool[i])
		tb.Actions[s] = rng.Intn(nn.NavNetActions)
		tb.Rewards[s] = float64(rng.Intn(2001)-1000) / 1000
		if tb.Done[s] = s%7 == 3; !tb.Done[s] {
			copy(tb.Nexts.Data()[s*chw:(s+1)*chw], pool[i+1])
		}
	}
	return tb
}

// goldenRun compiles net under cfg and returns the hash of what the schedule
// starts from (quantized words and the frame pool) and the hash of what it
// ends with: every online weight and bias word, each step's MSE bits and one
// final Infer's Q-value bits.
func goldenRun(t *testing.T, g goldenNet, cfg nn.Config) (start, final string) {
	net := g.net()
	net.SetConfig(cfg)
	b, err := NewTrainBackend(net, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashOnline(h, b.Online())
	for _, f := range g.pool {
		for _, v := range f {
			hashU64(h, uint64(math.Float32bits(v)))
		}
	}
	start = hex.EncodeToString(h.Sum(nil))

	h = sha256.New()
	rng := rand.New(rand.NewSource(80))
	for step := 1; step <= goldenSteps; step++ {
		hashU64(h, math.Float64bits(b.Train(goldenBatchAt(rng, g.pool))))
		if step%goldenSync == 0 {
			b.SyncTarget()
		}
	}
	obs := tensor.New(1, env.ImageSize, env.ImageSize)
	copy(obs.Data(), g.pool[0])
	for _, q := range b.Infer(obs) {
		hashU64(h, uint64(math.Float32bits(q)))
	}
	hashOnline(h, b.Online())
	return start, hex.EncodeToString(h.Sum(nil))
}

// TestTrainBackendGolden pins the quantized TD step bit for bit: 12 Train
// calls at batch 32 (every seventh row terminal) with a SyncTarget every
// fourth, under L2, L3 and E2E, must leave exactly the weight and bias words,
// per-step MSE bits and Q-values that the per-sample int64 engine left at
// the commit before the batched GEMM engine replaced it (e59c5f9). The hashes
// were re-captured once, at 209932f, when the cost moved out of the engine
// and out of the hash; internal/hw pins the cost. Everything between the start hash and the final
// hash is integer arithmetic plus float operations that cannot contract, so
// the pins hold on every architecture and on the portable kernels as on AVX2;
// the "meta" start itself is float work and is excused, loudly, where the
// compiler fuses multiply-adds.
func TestTrainBackendGolden(t *testing.T) {
	nets := map[string]goldenNet{"meta": goldenMeta(t), "init": goldenInit()}
	for _, tc := range []struct {
		net         string
		cfg         nn.Config
		start, want string
	}{
		{"meta", nn.L2, "0ef02f29d941c911ded2a23a3593932faeb620e13257fc6e8330401cc537eeb2", "259efea69ad79b7dbaefb80811c72c8852c798082a5842441bf4edbac3a34b19"},
		{"meta", nn.L3, "0ef02f29d941c911ded2a23a3593932faeb620e13257fc6e8330401cc537eeb2", "0c212d6a87a2f26569a075797db662181bfb0b95f3545cbbd18f22319db650e0"},
		{"meta", nn.E2E, "0ef02f29d941c911ded2a23a3593932faeb620e13257fc6e8330401cc537eeb2", "b798c77ebed4a85e52d684a006a1d2ac3a7ae6d3d8368d876074bc8bf51ab311"},
		{"init", nn.L2, "e3651427662e888ae0ac6b4e94bac887b52aef34bea0278c7ea9112718b1ab5e", "3cfce315adaf335b67cc30b700c315ad77ae1139784d0155bf466eac57a602c4"},
		{"init", nn.L3, "e3651427662e888ae0ac6b4e94bac887b52aef34bea0278c7ea9112718b1ab5e", "2fc2a637b0401022b6a35429fd118ffc216fcc4e88d7a971c65cb104d9382d3d"},
		{"init", nn.E2E, "e3651427662e888ae0ac6b4e94bac887b52aef34bea0278c7ea9112718b1ab5e", "ee3c4117457348e2d9ea620cafcbcd326ab7d7ea1dc9a47edea9bf1ae80d4b9b"},
	} {
		t.Run(tc.net+"/"+tc.cfg.String(), func(t *testing.T) {
			start, got := goldenRun(t, nets[tc.net], tc.cfg)
			if start != tc.start {
				if tc.net == "meta" && runtime.GOARCH != "amd64" {
					t.Skipf("float meta-training and ray casting round differently on %s (fused multiply-add): start %s, pinned %s; the init pins cover this architecture",
						runtime.GOARCH, start, tc.start)
				}
				t.Fatalf("the schedule's starting point moved (float side or quantizer, not the TD step): start %s, pinned %s",
					start, tc.start)
			}
			if got != tc.want {
				t.Fatalf("quantized TD step is no longer bit-identical to the pinned engine: got %s, want %s", got, tc.want)
			}
		})
	}
}

// refConv is the parent engine's scalar tConv — the six-deep loops with a
// 64-bit accumulator and a bounds test per tap — kept as the reference the
// GEMM convolution is compared against, word for word.
type refConv struct{ *tConv }

// forward returns one sample's output words and the largest |product sum|
// any output pixel reached before the bias joined it.
func (c refConv) forward(in []int16, h, w int) (out []int16, maxAbs int64) {
	oh := (h+2*c.pad-c.k)/c.stride + 1
	ow := (w+2*c.pad-c.k)/c.stride + 1
	out = make([]int16, c.outC*oh*ow)
	colw := c.inC * c.k * c.k
	for oc := 0; oc < c.outC; oc++ {
		wrow := c.w[oc*colw : (oc+1)*colw]
		bias := int64(c.b[oc]) << c.aFrac // to the 2^(a+w) product scale
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc int64
				p := 0
				for ic := 0; ic < c.inC; ic++ {
					base := ic * h * w
					for ky := 0; ky < c.k; ky++ {
						iy := oy*c.stride - c.pad + ky
						for kx := 0; kx < c.k; kx++ {
							ix := ox*c.stride - c.pad + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								acc += int64(in[base+iy*w+ix]) * int64(wrow[p])
							}
							p++
						}
					}
				}
				maxAbs = max(maxAbs, acc, -acc)
				out[oc*oh*ow+oy*ow+ox] = narrow64(acc+bias, c.wFrac)
			}
		}
	}
	return out, maxAbs
}

// backward accumulates one sample's weight and bias gradients into gw, gb
// and returns its narrowed input gradient.
func (c refConv) backward(in, g []int16, h, w int, gw, gb []int64) []int16 {
	oh := (h+2*c.pad-c.k)/c.stride + 1
	ow := (w+2*c.pad-c.k)/c.stride + 1
	colw := c.inC * c.k * c.k
	gin := make([]int64, c.inC*h*w)
	for oc := 0; oc < c.outC; oc++ {
		wrow := c.w[oc*colw : (oc+1)*colw]
		grow := gw[oc*colw : (oc+1)*colw]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				gv := int64(g[oc*oh*ow+oy*ow+ox])
				gb[oc] += gv
				p := 0
				for ic := 0; ic < c.inC; ic++ {
					base := ic * h * w
					for ky := 0; ky < c.k; ky++ {
						iy := oy*c.stride - c.pad + ky
						for kx := 0; kx < c.k; kx++ {
							ix := ox*c.stride - c.pad + kx
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								pix := base + iy*w + ix
								grow[p] += gv * int64(in[pix])
								gin[pix] += gv * int64(wrow[p])
							}
							p++
						}
					}
				}
			}
		}
	}
	out := make([]int16, len(gin))
	for i, v := range gin {
		out[i] = narrow64(v, c.wFrac)
	}
	return out
}

func randWords(rng *rand.Rand, n, amp int) []int16 {
	ws := make([]int16, n)
	for i := range ws {
		ws[i] = int16(rng.Intn(2*amp+1) - amp)
	}
	return ws
}

// TestTrainConvMatchesScalarReference compares the batched GEMM convolution
// — im2col panel, padded rows, wrap-around int32 accumulation, panel-driven
// backward with col2im — against the scalar int64 reference, word for word,
// at batch 1, 8 and 32: NavNet's two shapes plus an off-square one where
// every border is clipped differently.
func TestTrainConvMatchesScalarReference(t *testing.T) {
	for _, geo := range []struct {
		name                            string
		inC, outC, k, stride, pad, h, w int
	}{
		{"CONV1", 1, 8, 5, 2, 2, 32, 32},
		{"CONV2", 8, 16, 3, 2, 1, 16, 16},
		{"offsquare", 3, 4, 3, 1, 2, 7, 10},
	} {
		rng := rand.New(rand.NewSource(91))
		colw := geo.inC * geo.k * geo.k
		c := &tConv{
			layerName: geo.name,
			inC:       geo.inC, outC: geo.outC, k: geo.k, stride: geo.stride, pad: geo.pad,
			w:     randWords(rng, geo.outC*colw, 4096), // |w| <= 0.5 in Q2.13
			b:     randWords(rng, geo.outC, 4096),
			gw:    make([]int64, geo.outC*colw),
			gb:    make([]int64, geo.outC),
			aFrac: 8, wFrac: 13, gFrac: 8,
		}
		ref := refConv{c}
		chw := geo.inC * geo.h * geo.w
		for _, bsz := range []int{1, 8, 32} {
			var ws batchWorkspace
			in := randWords(rng, bsz*chw, 512) // activations in [-2, 2] in Q7.8
			out, shape := c.forwardBatch(in, bsz, [3]int{geo.inC, geo.h, geo.w}, &ws, 0)
			olen := shape[0] * shape[1] * shape[2]
			g := randWords(rng, bsz*olen, 64)
			for i := range g {
				if i%3 == 0 {
					g[i] = 0 // the sparse rows ReLU masks leave
				}
			}
			gin := c.backwardBatch(g, true, &ws, 0)
			wantGW, wantGB := make([]int64, len(c.gw)), make([]int64, len(c.gb))
			for s := 0; s < bsz; s++ {
				want, _ := ref.forward(in[s*chw:(s+1)*chw], geo.h, geo.w)
				for i, v := range want {
					if out[s*olen+i] != v {
						t.Fatalf("%s batch %d sample %d: out[%d] = %d, reference %d", geo.name, bsz, s, i, out[s*olen+i], v)
					}
				}
				wantGin := ref.backward(in[s*chw:(s+1)*chw], g[s*olen:(s+1)*olen], geo.h, geo.w, wantGW, wantGB)
				for i, v := range wantGin {
					if gin[s*chw+i] != v {
						t.Fatalf("%s batch %d sample %d: gin[%d] = %d, reference %d", geo.name, bsz, s, i, gin[s*chw+i], v)
					}
				}
			}
			for i, v := range wantGW {
				if c.gw[i] != v {
					t.Fatalf("%s batch %d: gw[%d] = %d, reference %d", geo.name, bsz, i, c.gw[i], v)
				}
			}
			for i, v := range wantGB {
				if c.gb[i] != v {
					t.Fatalf("%s batch %d: gb[%d] = %d, reference %d", geo.name, bsz, i, c.gb[i], v)
				}
			}
			clear(c.gw)
			clear(c.gb)
		}
	}
}

// refDense is the parent engine's scalar tDense — one int64 product at a
// time, no kernel — kept as the reference the vector training path is
// compared against, word for word.
type refDense struct{ *tDense }

// forward returns one sample's output words and the largest |product sum|
// any output reached before the bias joined it.
func (d refDense) forward(x []int16) (out []int16, maxAbs int64) {
	out = make([]int16, d.out)
	for j := range out {
		var acc int64
		for i, xv := range x {
			acc += int64(d.w[j*d.in+i]) * int64(xv)
		}
		maxAbs = max(maxAbs, acc, -acc)
		out[j] = narrow64(acc+int64(d.b[j])<<d.aFrac, d.wFrac)
	}
	return out, maxAbs
}

// backward accumulates one sample's weight and bias gradients into gw, gb
// and returns its narrowed input gradient.
func (d refDense) backward(x, g []int16, gw, gb []int64) []int16 {
	gin := make([]int64, d.in)
	for j, gv := range g {
		gb[j] += int64(gv)
		for i := range gin {
			gw[j*d.in+i] += int64(gv) * int64(x[i])
			gin[i] += int64(gv) * int64(d.w[j*d.in+i])
		}
	}
	out := make([]int16, d.in)
	for i, v := range gin {
		out[i] = narrow64(v, d.wFrac)
	}
	return out
}

// edgeWords sets every period-th word of ws to ±32768 / 32767 in turn.
func edgeWords(ws []int16, period int) []int16 {
	for i := 0; i < len(ws); i += period {
		ws[i] = []int16{math.MinInt16, math.MaxInt16}[i/period%2]
	}
	return ws
}

// TestTrainDenseMatchesScalarReference holds the dense layer's vector path —
// the int16 GEMM, the Narrow64 epilogue and the AxpyPanel16 gradients —
// to the scalar int64 reference word for word, at batch 1, 8 and 32, on
// NavNet's FC2 and FC4 shapes and an odd one that leaves every kernel a
// tail. Activations reach ±32768. The forward weights stay within the range
// where the wrap-around int32 sums are exact (asserted); the backward, a
// function of the gradient, the cached rows and the current weights, then
// runs on weights that reach ±32768 too, with gradients at both int16 edges,
// sparse zeros and whole zero rows (a sample the TD target masked out).
func TestTrainDenseMatchesScalarReference(t *testing.T) {
	for _, geo := range []struct {
		name    string
		in, out int
	}{
		{"FC2", 128, 64},
		{"FC4", 32, 5},
		{"odd", 37, 19},
	} {
		rng := rand.New(rand.NewSource(93))
		d := &tDense{
			layerName: geo.name, in: geo.in, out: geo.out,
			b:     edgeWords(randWords(rng, geo.out, 4096), 3),
			gw:    make([]int64, geo.out*geo.in),
			gb:    make([]int64, geo.out),
			aFrac: 8, wFrac: 13, gFrac: 8,
		}
		ref := refDense{d}
		for _, bsz := range []int{1, 8, 32} {
			var ws batchWorkspace
			d.w = randWords(rng, geo.out*geo.in, 4096)
			in := edgeWords(randWords(rng, bsz*geo.in, 512), 5)
			out, _ := d.forwardBatch(in, bsz, [3]int{geo.in, 1, 1}, &ws, 0)
			for s := 0; s < bsz; s++ {
				want, maxAbs := ref.forward(in[s*geo.in : (s+1)*geo.in])
				if maxAbs >= 1<<31 {
					t.Fatalf("%s batch %d sample %d: |sum| %d leaves int32; the forward check needs smaller words", geo.name, bsz, s, maxAbs)
				}
				for j, v := range want {
					if out[s*geo.out+j] != v {
						t.Fatalf("%s batch %d sample %d: out[%d] = %d, reference %d", geo.name, bsz, s, j, out[s*geo.out+j], v)
					}
				}
			}
			d.w = edgeWords(randWords(rng, geo.out*geo.in, 32767), 7)
			g := edgeWords(randWords(rng, bsz*geo.out, 32767), 2)
			for i := range g {
				if s := i / geo.out; s%3 == 1 || i%5 == 0 {
					g[i] = 0 // whole zero rows, and the sparse words ReLU masks leave
				}
			}
			gin := d.backwardBatch(g, true, &ws, 0)
			wantGW, wantGB := make([]int64, len(d.gw)), make([]int64, len(d.gb))
			for s := 0; s < bsz; s++ {
				wantGin := ref.backward(in[s*geo.in:(s+1)*geo.in], g[s*geo.out:(s+1)*geo.out], wantGW, wantGB)
				for i, v := range wantGin {
					if gin[s*geo.in+i] != v {
						t.Fatalf("%s batch %d sample %d: gin[%d] = %d, reference %d", geo.name, bsz, s, i, gin[s*geo.in+i], v)
					}
				}
			}
			if !slices.Equal(d.gw, wantGW) || !slices.Equal(d.gb, wantGB) {
				t.Fatalf("%s batch %d: weight or bias gradients differ from the reference", geo.name, bsz)
			}
			clear(d.gw)
			clear(d.gb)
		}
	}
}

// TestTrainAccumulatorHeadroom states the precondition the GEMM forward
// rests on instead of assuming it: the int16 kernels accumulate in
// wrap-around int32, which equals the int64 sum exactly when that sum fits.
// It shadows every conv and dense forward accumulator in 64 bits over a few
// hundred real depth frames on the meta-trained NavNet and requires the
// largest true |sum| to sit at least 8 bits under the int32 horizon. (Between
// 2^28 and the horizon both accumulators narrow to the same saturated word;
// the bound is about never getting near the wrap, not about that band.)
func TestTrainAccumulatorHeadroom(t *testing.T) {
	net := metaTrainedNavNet()()
	tn, err := CompileTrainable(net, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var frames []*tensor.Tensor
	for i, name := range []string{"indoor-apartment", "indoor-house", "outdoor-forest", "outdoor-town", "warehouse"} {
		frames = append(frames, scenarioObs(t, name, 64, int64(300+i))...)
	}
	// The meta-trained weights are float work: where the compiler fuses
	// multiply-adds (arm64) SGD lands on a different net of the same family,
	// and the 0.4 bits to spare below are within run-to-run spread — there the
	// bound is 6 bits, which still keeps every sum 3 bits short of where the
	// int16 narrow starts saturating (2^28), let alone of the wrap.
	margin := 8
	if runtime.GOARCH != "amd64" {
		margin = 6
	}
	horizon := int64(1) << (31 - margin)
	chw := env.ImageSize * env.ImageSize
	const bsz = 32
	stack := make([]int16, bsz*chw)
	worst := make([]int64, len(tn.layers))
	for lo := 0; lo+bsz <= len(frames); lo += bsz {
		for s := 0; s < bsz; s++ {
			tn.quantize(stack[s*chw:(s+1)*chw], frames[lo+s].Data())
		}
		x, shape := stack, [3]int{1, env.ImageSize, env.ImageSize}
		for i, l := range tn.layers {
			rowLen := len(x) / bsz
			for s := 0; s < bsz; s++ {
				row := x[s*rowLen : (s+1)*rowLen]
				switch l := l.(type) {
				case *tConv:
					_, m := refConv{l}.forward(row, shape[1], shape[2])
					worst[i] = max(worst[i], m)
				case *tDense:
					for j := 0; j < l.out; j++ {
						var acc int64
						for k, xv := range row {
							acc += int64(xv) * int64(l.w[j*l.in+k])
						}
						worst[i] = max(worst[i], acc, -acc)
					}
				}
			}
			x, shape = l.forwardBatch(x, bsz, shape, &tn.ws, i)
		}
	}
	for i, l := range tn.layers {
		if worst[i] == 0 {
			continue
		}
		bits := math.Log2(float64(worst[i]))
		t.Logf("%s: largest true |accumulator| 2^%.1f over %d frames, %.1f bits under the int32 horizon",
			l.name(), bits, len(frames)/bsz*bsz, 31-bits)
		if worst[i] >= horizon {
			t.Errorf("%s: true accumulator reaches %d, less than %d bits under the int32 horizon", l.name(), worst[i], margin)
		}
	}
}

// featureTwin rebuilds a frame batch the way the online loop hands it over:
// every row featurized alone, at batch one, by b itself, and no frames.
// Terminal rows' NextFeats hold junk, which Train must ignore.
func featureTwin(b *TrainBackend, tb nn.TrainBatch) nn.TrainBatch {
	sh := tb.States.Shape()
	chw := sh[1] * sh[2] * sh[3]
	row := func(t *tensor.Tensor, s int) []int16 {
		return b.BoundaryFeatures(tensor.FromSlice(t.Data()[s*chw:(s+1)*chw], sh[1], sh[2], sh[3]))
	}
	out := tb
	out.States, out.Nexts = nil, nil
	for s, done := range tb.Done {
		feat := row(tb.States, s)
		out.Feats = append(out.Feats, feat...)
		if done {
			for range feat {
				out.NextFeats = append(out.NextFeats, math.MaxInt16)
			}
		} else {
			out.NextFeats = append(out.NextFeats, row(tb.Nexts, s)...)
		}
	}
	return out
}

// TestTrainBackendRejectsMalformedBatch asserts a malformed TD minibatch —
// frames or boundary features — is refused up front, by name, with nothing
// mutated: the gradient scratchpads the next Train would apply stay all-zero,
// the rounding stream has not advanced and no step is counted.
func TestTrainBackendRejectsMalformedBatch(t *testing.T) {
	compile := func(cfg nn.Config) *TrainBackend {
		net := trainedNavNet(37)
		net.SetConfig(cfg)
		b, err := NewTrainBackend(net, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := compile(nn.L3)
	good := func() nn.TrainBatch {
		return goldenBatchAt(rand.New(rand.NewSource(38)), [][]float32{depthImage(39).Data(), depthImage(40).Data()})
	}
	goodFeats := func() nn.TrainBatch { return featureTwin(b, good()) }
	f := b.featDim()
	refused := func(b *TrainBackend, field string, tb nn.TrainBatch) {
		t.Helper()
		sr := *b.online.sr
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := "qnn: TrainBatch " + field; !strings.HasPrefix(msg, want) {
					t.Errorf("%s: panic %q, want prefix %q", field, msg, want)
				}
			}()
			b.Train(tb)
		}()
		for i, l := range b.Online().layers {
			var gw, gb []int64
			switch t := l.(type) {
			case *tConv:
				gw, gb = t.gw, t.gb
			case *tDense:
				gw, gb = t.gw, t.gb
			}
			for _, v := range append(gw[:len(gw):len(gw)], gb...) {
				if v != 0 {
					t.Fatalf("%s: rejected batch left a gradient in layer %d's scratchpad", field, i)
				}
			}
		}
		if *b.online.sr != sr {
			t.Fatalf("%s: rejected batch advanced the rounding stream", field)
		}
		if b.Steps() != 0 {
			t.Fatalf("%s: rejected batch was counted: %d steps", field, b.Steps())
		}
	}
	for _, tc := range []struct {
		field   string
		good    func() nn.TrainBatch
		corrupt func(*nn.TrainBatch)
	}{
		{"States", good, func(tb *nn.TrainBatch) { tb.States = tensor.New(goldenBatch, env.ImageSize*env.ImageSize) }},
		{"States", good, func(tb *nn.TrainBatch) { tb.States = tensor.New(goldenBatch-1, 1, env.ImageSize, env.ImageSize) }},
		{"States", good, func(tb *nn.TrainBatch) { tb.States = nil }},
		{"Nexts", good, func(tb *nn.TrainBatch) { tb.Nexts = tensor.New(goldenBatch, 1, env.ImageSize, env.ImageSize/2) }},
		{"Nexts", good, func(tb *nn.TrainBatch) { tb.Nexts = nil }},
		{"Rewards", good, func(tb *nn.TrainBatch) { tb.Rewards = tb.Rewards[:goldenBatch-1] }},
		{"Done", good, func(tb *nn.TrainBatch) { tb.Done = tb.Done[:goldenBatch/2] }},
		{"Actions", good, func(tb *nn.TrainBatch) { tb.Actions[goldenBatch-1] = nn.NavNetActions }},
		{"Actions", good, func(tb *nn.TrainBatch) { tb.Actions[5] = -1 }},
		{"Feats", goodFeats, func(tb *nn.TrainBatch) { tb.Feats = tb.Feats[:len(tb.Feats)-1] }},
		// Rows of another boundary's width: L2's features offered to L3.
		{"Feats", goodFeats, func(tb *nn.TrainBatch) {
			tb.Feats, tb.NextFeats = make([]int16, goldenBatch*(f+1)), make([]int16, goldenBatch*(f+1))
		}},
		{"NextFeats", goodFeats, func(tb *nn.TrainBatch) { tb.NextFeats = nil }},
		{"NextFeats", goodFeats, func(tb *nn.TrainBatch) { tb.NextFeats = tb.NextFeats[:f] }},
		{"Rewards", goodFeats, func(tb *nn.TrainBatch) { tb.Rewards = tb.Rewards[:goldenBatch-1] }},
		{"Actions", goodFeats, func(tb *nn.TrainBatch) { tb.Actions[0] = nn.NavNetActions }},
	} {
		tb := tc.good()
		tc.corrupt(&tb)
		refused(b, tc.field, tb)
	}
	// Nothing is frozen under E2E, so there is no boundary to enter at.
	refused(compile(nn.E2E), "Feats", goodFeats())
	// The well-formed twin of every case above trains.
	if mse := b.Train(good()); math.IsNaN(mse) || b.Steps() != 1 {
		t.Fatalf("well-formed batch: mse %v, steps %d", mse, b.Steps())
	}
	if mse := b.Train(goodFeats()); math.IsNaN(mse) || b.Steps() != 2 {
		t.Fatalf("well-formed feature batch: mse %v, steps %d", mse, b.Steps())
	}
}

// TestTrainBackendFeaturesBitIdentical holds the claim the boundary-feature
// cache rests on. Row independence: a frame's BoundaryFeatures, computed at
// batch one, are the words row k of a 1-, 8- and 64-row stack containing it
// leaves at the boundary. And therefore: the golden schedule fed as
// Feats/NextFeats leaves the weight words, MSE bits, Q-values and Steps()
// that the same schedule leaves fed as States/Nexts, under L2 and L3.
// Under E2E there is no boundary: no features, and a batch carrying some is
// refused.
func TestTrainBackendFeaturesBitIdentical(t *testing.T) {
	g := goldenInit()
	compile := func(cfg nn.Config) *TrainBackend {
		net := g.net()
		net.SetConfig(cfg)
		b, err := NewTrainBackend(net, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	frame := func(i int) *tensor.Tensor { return tensor.FromSlice(g.pool[i], 1, env.ImageSize, env.ImageSize) }
	for _, cfg := range []nn.Config{nn.L2, nn.L3} {
		frames, feats := compile(cfg), compile(cfg)

		on := frames.online
		chw := len(g.pool[0])
		for _, rows := range []int{1, 8, 64} {
			stack := make([]int16, rows*chw)
			for r := 0; r < rows; r++ {
				on.quantize(stack[r*chw:(r+1)*chw], g.pool[r])
			}
			out, _ := on.forwardLayers(0, on.trainFrom, stack, rows, [3]int{1, env.ImageSize, env.ImageSize})
			out = slices.Clone(out)
			f := frames.featDim()
			for _, k := range []int{0, rows / 2, rows - 1} {
				if !slices.Equal(frames.BoundaryFeatures(frame(k)), out[k*f:(k+1)*f]) {
					t.Fatalf("%s: BoundaryFeatures of frame %d differ from row %d of a %d-row stack", cfg, k, k, rows)
				}
			}
		}

		rngA, rngB := rand.New(rand.NewSource(80)), rand.New(rand.NewSource(80))
		for step := 1; step <= goldenSteps; step++ {
			a := frames.Train(goldenBatchAt(rngA, g.pool))
			b := feats.Train(featureTwin(feats, goldenBatchAt(rngB, g.pool)))
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s step %d: MSE %v from frames, %v from features", cfg, step, a, b)
			}
			if step%goldenSync == 0 {
				frames.SyncTarget()
				feats.SyncTarget()
			}
		}
		for i := range on.layers {
			aw, ab := layerWeights(on.layers[i])
			bw, bb := layerWeights(feats.online.layers[i])
			if !slices.Equal(aw, bw) || !slices.Equal(ab, bb) {
				t.Errorf("%s: layer %d's words differ between the frame-fed and the feature-fed run", cfg, i)
			}
		}
		qa := slices.Clone(frames.Infer(frame(0)))
		for i, q := range feats.Infer(frame(0)) {
			if math.Float32bits(q) != math.Float32bits(qa[i]) {
				t.Errorf("%s: Q[%d] is %v from frames, %v from features", cfg, i, qa[i], q)
			}
		}
		if frames.Steps() != feats.Steps() {
			t.Errorf("%s: %d steps from frames, %d from features", cfg, frames.Steps(), feats.Steps())
		}
	}

	e2e := compile(nn.E2E)
	if feat := e2e.BoundaryFeatures(frame(0)); feat != nil {
		t.Fatalf("E2E: %d boundary words with nothing frozen, want nil", len(feat))
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "qnn: TrainBatch Feats") {
			t.Errorf("E2E: Train with Feats panicked %q, want a refusal naming Feats", msg)
		}
	}()
	tb := goldenBatchAt(rand.New(rand.NewSource(80)), g.pool)
	tb.Feats, tb.NextFeats = make([]int16, goldenBatch), make([]int16, goldenBatch)
	e2e.Train(tb)
}

// TestTrainBackendGreedyFrom pins the actor's integer greedy step: under L2
// and L3, after a few updates, GreedyFrom over a frame's boundary
// words picks Infer's argmax for that frame (ties to the lowest index, as
// rl's argmax), on every frame of the pool, with at least two distinct
// actions among them. It leaves the words replay keeps as they were. A row of the wrong width is refused by the first
// trainable layer, by name; under E2E there is no boundary to start from.
func TestTrainBackendGreedyFrom(t *testing.T) {
	g := goldenMeta(t)
	frame := func(i int) *tensor.Tensor { return tensor.FromSlice(g.pool[i], 1, env.ImageSize, env.ImageSize) }
	compile := func(cfg nn.Config) *TrainBackend {
		net := g.net()
		net.SetConfig(cfg)
		b, err := NewTrainBackend(net, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, cfg := range []nn.Config{nn.L2, nn.L3} {
		b := compile(cfg)
		// No sync: the target keeps the compiled tail, so a GreedyFrom that
		// read it instead of the trained online tail would show.
		rng := rand.New(rand.NewSource(81))
		for step := 1; step <= goldenSteps; step++ {
			b.Train(featureTwin(b, goldenBatchAt(rng, g.pool)))
		}
		seen := map[int]bool{}
		for i := range g.pool {
			feat := b.BoundaryFeatures(frame(i))
			kept := slices.Clone(feat)
			got := b.GreedyFrom(feat)
			if !slices.Equal(feat, kept) {
				t.Fatalf("%s frame %d: GreedyFrom rewrote the caller's boundary words", cfg, i)
			}
			q := b.Infer(frame(i))
			want := 0
			for a, v := range q {
				if v > q[want] {
					want = a
				}
			}
			if got != want {
				t.Fatalf("%s frame %d: GreedyFrom picks %d, Infer's argmax is %d (Q %v)", cfg, i, got, want, q)
			}
			seen[got] = true
		}
		if len(seen) < 2 {
			t.Errorf("%s: every frame picks the same action: the pin proves nothing", cfg)
		}

		feat := b.BoundaryFeatures(frame(0))
		name := b.online.layers[b.online.trainFrom].name()
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, name) {
					t.Errorf("%s: GreedyFrom of a short row panicked %q, want a refusal naming %s", cfg, msg, name)
				}
			}()
			b.GreedyFrom(feat[:len(feat)-1])
		}()
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "freezes no prefix") {
			t.Errorf("E2E: GreedyFrom panicked %q, want a refusal", msg)
		}
	}()
	compile(nn.E2E).GreedyFrom(make([]int16, 8))
}

// TestTrainBackendSharedPrefix asserts the frozen prefix is one set of words,
// not two that happen to agree: after 12 updates and 3 syncs under L3 the
// target's frozen weight slices still alias the online ones, its trainable
// tail owns its memory and equals the online tail as of the last sync.
// A frozen conv's packed weight image rides the same contract: it exists
// exactly below the boundary, online, target and a fresh Clone hold the one
// image, and after every Update, SyncTarget, CopyWeightsFrom and WriteBack of
// the schedule it is still the image of the layer's words — the panel GEMM,
// which rebuilds its operand from the words each pass, agrees with it word
// for word on a real frame.
func TestTrainBackendSharedPrefix(t *testing.T) {
	g := goldenInit()
	net := g.net()
	net.SetConfig(nn.L3)
	b, err := NewTrainBackend(net, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	for step := 1; step <= goldenSteps; step++ {
		b.Train(goldenBatchAt(rng, g.pool))
		if step%goldenSync == 0 {
			b.SyncTarget()
		}
	}
	on, tg := b.online, b.target
	moved := false
	for i := range on.layers {
		ow, ob := layerWeights(on.layers[i])
		tw, tb := layerWeights(tg.layers[i])
		if ow == nil {
			continue
		}
		aliased := &ow[0] == &tw[0] && &ob[0] == &tb[0]
		if frozen := i < on.trainFrom; aliased != frozen {
			t.Errorf("layer %d (%s): aliased %v, frozen %v", i, on.layers[i].name(), aliased, frozen)
		}
		if !slices.Equal(ow, tw) || !slices.Equal(ob, tb) {
			t.Errorf("layer %d (%s): target differs from online right after a sync", i, on.layers[i].name())
		}
	}
	// One more update moves the online tail only.
	b.Train(goldenBatchAt(rng, g.pool))
	for i := on.trainFrom; i < len(on.layers); i++ {
		ow, _ := layerWeights(on.layers[i])
		tw, _ := layerWeights(tg.layers[i])
		moved = moved || !slices.Equal(ow, tw)
	}
	if !moved {
		t.Error("an update after the sync left the online tail equal to the target: the tails share memory")
	}

	clone := on.Clone()
	x, shape := make([]int16, len(g.pool[0])), [3]int{1, env.ImageSize, env.ImageSize}
	on.quantize(x, g.pool[0])
	for i, l := range on.layers {
		if c, ok := l.(*tConv); ok {
			if frozen := i < on.trainFrom; (c.frozen != nil) != frozen {
				t.Errorf("layer %d (%s): packed image present %v, frozen %v", i, c.layerName, c.frozen != nil, frozen)
			}
			if tc, cc := tg.layers[i].(*tConv), clone.layers[i].(*tConv); tc.frozen != c.frozen || cc.frozen != c.frozen {
				t.Errorf("layer %d (%s): target or clone holds its own packed image", i, c.layerName)
			}
			panel := *c
			panel.frozen = nil
			want, _ := panel.forwardBatch(x, 1, shape, &batchWorkspace{}, 0)
			got, _ := c.forwardBatch(x, 1, shape, &batchWorkspace{}, 0)
			if !slices.Equal(got, want) {
				t.Errorf("layer %d (%s): packed image is stale: direct convolution differs from the panel GEMM over the layer's words", i, c.layerName)
			}
		}
		x, shape = l.forwardBatch(x, 1, shape, &on.ws, i)
	}
	e2e := g.net()
	e2e.SetConfig(nn.E2E)
	tn, err := CompileTrainable(e2e, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range tn.layers {
		if c, ok := l.(*tConv); ok && c.frozen != nil {
			t.Errorf("E2E layer %d (%s) is trainable but carries a packed image no Update would refresh", i, c.layerName)
		}
	}
}

// TestQuantTrainStepZeroAlloc asserts the steady-state allocation contract of
// the batched TD step — the twin of TestQuantForwardBatchZeroAlloc: after one
// warm-up Train at batch 32, fed frames or boundary features, every panel
// comes from the workspace, and so does the actor's greedy step from
// boundary words. Pinned at GOMAXPROCS 2, as there.
func TestQuantTrainStepZeroAlloc(t *testing.T) {
	g := goldenInit()
	for _, cfg := range []nn.Config{nn.L3, nn.E2E} {
		net := g.net()
		net.SetConfig(cfg)
		b, err := NewTrainBackend(net, TrainOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tb := goldenBatchAt(rand.New(rand.NewSource(95)), g.pool)
		b.Train(tb) // warm-up sizes every slot
		if avg := allocs.PerRun(5, func() { b.Train(tb) }); avg != 0 {
			t.Errorf("%s: steady-state Train allocates %v times per call, want 0", cfg, avg)
		}
		if cfg == nn.E2E {
			continue
		}
		// The feature-fed step, and the featurizer's one allocation per
		// frame: the private copy replay keeps.
		ft := featureTwin(b, tb)
		if avg := allocs.PerRun(5, func() { b.Train(ft) }); avg != 0 {
			t.Errorf("%s: steady-state Train from features allocates %v times per call, want 0", cfg, avg)
		}
		obs := tensor.FromSlice(g.pool[0], 1, env.ImageSize, env.ImageSize)
		if avg := allocs.PerRun(5, func() { b.BoundaryFeatures(obs) }); avg != 1 {
			t.Errorf("%s: BoundaryFeatures allocates %v times per frame, want 1", cfg, avg)
		}
		feat := b.BoundaryFeatures(obs)
		if avg := allocs.PerRun(5, func() { b.GreedyFrom(feat) }); avg != 0 {
			t.Errorf("%s: GreedyFrom allocates %v times per step, want 0", cfg, avg)
		}
	}
}

// TestEveryWeightMutatorInvalidatesDenseCache is this package's case of the
// internal/nn test of the same name: WriteBack writes float weights that
// nn.Dense has a cached transpose of, so after it both forward paths must
// equal a freshly built network restored from the same weights.
func TestEveryWeightMutatorInvalidatesDenseCache(t *testing.T) {
	net := tinyNet(31)
	rng := rand.New(rand.NewSource(32))
	xb := tensor.New(32, 1, 2, 2)
	xb.RandN(rng, 1)
	x := tensor.FromSlice(append([]float32(nil), xb.Data()[:4]...), 1, 2, 2)
	net.ForwardBatch(xb)
	before := net.Forward(x.Clone())

	tn, err := CompileTrainable(net, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4; step++ {
		q := tn.Forward(x.Data(), [3]int{1, 2, 2})
		tn.Backward([]float32{q[0] - 1, q[1] + 1})
		tn.Update(0.1, 1, 1)
	}
	if err := tn.WriteBack(net); err != nil {
		t.Fatal(err)
	}
	if net.Forward(x.Clone()).Equal(before) {
		t.Fatal("WriteBack left the output unchanged: the case proves nothing")
	}
	fresh := tinyNet(33)
	if err := nn.TakeSnapshot(net, "tiny").Restore(fresh); err != nil {
		t.Fatal(err)
	}
	if !net.Forward(x.Clone()).Equal(fresh.Forward(x.Clone())) {
		t.Error("Forward reads a stale weight layout after WriteBack")
	}
	for _, b := range []int{1, 2, 32} {
		in := tensor.FromSlice(xb.Data()[:b*4], b, 1, 2, 2)
		if !net.ForwardBatch(in).Equal(fresh.ForwardBatch(in)) {
			t.Errorf("ForwardBatch(batch %d) reads a stale weight layout after WriteBack", b)
		}
	}
}
