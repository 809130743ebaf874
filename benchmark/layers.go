package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"dronerl/internal/env"
	"dronerl/internal/fixed"
	"dronerl/internal/hw"
	"dronerl/internal/nn"
	"dronerl/internal/qnn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
	"dronerl/internal/transfer"
)

// navLayers are NavNet's weighted layers, the rows of the measured-beside-
// modeled table. Everything else in the stack (ReLU, flatten) is "other".
var navLayers = []string{"CONV1", "CONV2", "FC1", "FC2", "FC3", "FC4"}

// probes times each layer's exported functions from outside, one layer at a
// time on an otherwise idle process. They do not depend on the workload: a
// per-layer number means the same thing in every traced run.
type probes struct {
	c    config
	snap *nn.Snapshot
	out  map[string]stat
	err  error
}

// reps is how many timed groups a probe takes its median over.
func (p *probes) reps() int { return max(2, p.c.count(7)) }

// time records the per-call time of f under name, in unit-scale k
// (1e6: µs, 1e3: ms), over groups of inner calls.
func (p *probes) time(name string, k float64, inner int, f func()) {
	p.out[name] = scaled(timeOp(p.reps(), max(1, p.c.count(inner)), f), k)
}

func (p *probes) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// probeLayers runs every workload-independent per-layer probe.
func probeLayers(c config, snap *nn.Snapshot) (map[string]stat, error) {
	p := &probes{c: c, snap: snap, out: map[string]stat{}}
	p.tensor()
	p.nn()
	p.qnn()
	p.env()
	p.rl()
	p.systolic()
	for name, s := range simulatedMetrics() {
		p.out[name] = s
	}
	return p.out, p.err
}

// net builds a private NavNet holding the run's meta-trained weights.
func (p *probes) net(cfg nn.Config) *nn.Network {
	n := nn.NavNetSpec().Build()
	p.fail(p.snap.Restore(n))
	n.SetConfig(cfg)
	return n
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.RandUniform(rng, 1)
	return t
}

// tensor: the GEMM kernels at FC1's batch-32 shape (32x1024 by 1024x128) and
// the batched im2col at CONV2's.
func (p *probes) tensor() {
	const m, k, n = onlineBatch, 1024, 128
	rng := rand.New(rand.NewSource(p.c.seed + 21))
	ops := float64(2*m*k*n) / 1e9
	a, b, bT := randTensor(rng, m, k), randTensor(rng, k, n), randTensor(rng, n, k)
	dst := tensor.New(m, n)
	p.out["tensor.matmul_gflops"] = rate(timeOp(p.reps(), 20, func() { dst.Zero(); tensor.MatMulAccum(dst, a, b) }), ops)
	p.out["tensor.matmul_nt_gflops"] = rate(timeOp(p.reps(), 20, func() { tensor.MatMulNTInto(dst, a, bT) }), ops)
	// A^T x B at the weight-gradient shape: dW(1024x128) += X^T(32x1024) x dY(32x128).
	g, dW := randTensor(rng, m, n), tensor.New(k, n)
	p.out["tensor.matmul_tn_gflops"] = rate(timeOp(p.reps(), 20, func() { dW.Zero(); tensor.MatMulTNAccum(dW, a, g) }), ops)

	a16, b16, d32 := make([]int16, m*k), make([]int16, n*k), make([]int32, m*n)
	for i := range a16 {
		a16[i] = int16(rng.Intn(512) - 256)
	}
	for i := range b16 {
		b16[i] = int16(rng.Intn(512) - 256)
	}
	p.out["tensor.matmul16_gops"] = rate(timeOp(p.reps(), 20, func() { tensor.MatMul16T(d32, a16, b16, m, k, n) }), ops)

	conv2 := nn.NavNetSpec().Convs[1]
	side, _ := nn.NavNetSpec().ConvOut(0)
	in := randTensor(rng, onlineBatch, conv2.InC, side, side)
	o := tensor.ConvOutDim(side, conv2.K, conv2.Stride, conv2.Pad)
	cols := tensor.New(onlineBatch*o*o, conv2.InC*conv2.K*conv2.K)
	p.time("tensor.im2col_us", 1e6, 20, func() { tensor.Im2ColInto(cols, in, conv2.K, conv2.K, conv2.Stride, conv2.Pad) })
}

// layerKey maps a network layer's name onto its per-layer metric suffix.
func layerKey(name string) string {
	if slices.Contains(navLayers, name) {
		return name
	}
	return "other"
}

// nn: NavNet at batch 32 one BatchLayer at a time, whole-network inference
// at batch 1 and 32, and the snapshot and policy-board operations the
// learning loops and hot reloads pay.
func (p *probes) nn() {
	spec := nn.NavNetSpec()
	rng := rand.New(rand.NewSource(p.c.seed + 22))
	net := p.net(nn.E2E)
	batch := randTensor(rng, onlineBatch, spec.InputC, spec.InputH, spec.InputW)
	grad := randTensor(rng, onlineBatch, nn.NavNetActions)

	fwd, bwd := map[string][]float64{}, map[string][]float64{}
	var whole []float64
	for r := 0; r <= p.reps(); r++ {
		f, b := map[string]float64{}, map[string]float64{}
		x, g := batch, grad
		for _, l := range net.Layers {
			t0 := time.Now()
			x = l.(nn.BatchLayer).ForwardBatch(x)
			f[layerKey(l.Name())] += time.Since(t0).Seconds()
		}
		for i := len(net.Layers) - 1; i >= 0; i-- {
			t0 := time.Now()
			g = net.Layers[i].(nn.BatchLayer).BackwardBatch(g, i > 0)
			b[layerKey(net.Layers[i].Name())] += time.Since(t0).Seconds()
		}
		net.ZeroGrad()
		if r == 0 {
			continue // warm-up: the layers build their workspaces on first use
		}
		var sum float64
		for k, v := range f {
			fwd[k] = append(fwd[k], v)
			sum += v
		}
		for k, v := range b {
			bwd[k] = append(bwd[k], v)
		}
		whole = append(whole, sum)
	}
	for _, k := range append([]string{"other"}, navLayers...) {
		p.out["nn.fwd_us."+k] = scaled(fwd[k], 1e6)
		p.out["nn.bwd_us."+k] = scaled(bwd[k], 1e6)
	}
	p.out["nn.fwd_gflops"] = rate(whole, float64(onlineBatch)*forwardFLOPs(spec)/1e9)

	one := randTensor(rng, spec.InputC, spec.InputH, spec.InputW)
	p.time("nn.infer_b1_us", 1e6, 50, func() { net.Forward(one) })
	p.time("nn.infer_b32_us", 1e6, 5, func() { net.ForwardBatch(batch) })

	p.time("nn.snapshot_take_us", 1e6, 20, func() { nn.TakeSnapshot(net, spec.Name) })
	var buf bytes.Buffer
	p.time("nn.snapshot_encode_ms", 1e3, 3, func() { buf.Reset(); p.fail(p.snap.Encode(&buf)) })
	raw := buf.Bytes()
	p.time("nn.snapshot_decode_ms", 1e3, 3, func() {
		_, err := nn.ReadSnapshot(bytes.NewReader(raw))
		p.fail(err)
	})

	// Publish and adopt under L3: the board carries the trainable FC tail,
	// which is what the online loops move at every sync.
	l3, replica := p.net(nn.L3), p.net(nn.L3)
	board := nn.NewPolicyBoard()
	p.time("nn.board_publish_us", 1e6, 50, func() { board.Publish(l3, spec.Name) })
	p.time("nn.board_adopt_us", 1e6, 50, func() {
		_, _, err := board.Adopt(replica, 0) // lastSeen 0: always stale, always copies
		p.fail(err)
	})
}

// forwardFLOPs counts one sample's multiply-accumulates (x2) through the
// weighted layers.
func forwardFLOPs(spec nn.ArchSpec) float64 {
	var f float64
	for i, c := range spec.Convs {
		pre, _ := spec.ConvOut(i)
		f += 2 * float64(c.OutC*c.InC*c.K*c.K*pre*pre)
	}
	for _, fc := range spec.FCs {
		f += 2 * float64(fc.In*fc.Out)
	}
	return f
}

// qnn: the int16 engine's inference at batch 1 and 32, its compile step (paid
// per worker per hot reload), one quantized L3 train step, and the
// per-sample forward of each weighted layer.
func (p *probes) qnn() {
	spec := nn.NavNetSpec()
	rng := rand.New(rand.NewSource(p.c.seed + 23))
	net := p.net(nn.E2E)
	qb, err := qnn.NewBackend(net)
	if err != nil {
		p.fail(err)
		return
	}
	one := randTensor(rng, spec.InputC, spec.InputH, spec.InputW)
	batch := randTensor(rng, onlineBatch, spec.InputC, spec.InputH, spec.InputW)
	p.time("qnn.infer_b1_us", 1e6, 20, func() { qb.Infer(one) })
	p.time("qnn.infer_b32_us", 1e6, 3, func() { qb.InferBatch(batch) })
	p.time("qnn.compile_ms", 1e3, 3, func() {
		_, err := qnn.NewBackend(net)
		p.fail(err)
	})

	tb, err := qnn.NewTrainBackend(p.net(nn.L3), qnn.TrainOptions{})
	if err != nil {
		p.fail(err)
		return
	}
	tbatch := nn.TrainBatch{
		States: batch, Nexts: randTensor(rng, onlineBatch, spec.InputC, spec.InputH, spec.InputW),
		Actions: make([]int, onlineBatch), Rewards: make([]float64, onlineBatch), Done: make([]bool, onlineBatch),
		Gamma: 0.95, LR: 0.001,
	}
	for i := range tbatch.Actions {
		tbatch.Actions[i], tbatch.Rewards[i] = i%nn.NavNetActions, rng.Float64()
	}
	p.time("qnn.train_step_ms", 1e3, 1, func() { tb.Train(tbatch) })

	qnet, err := qnn.Compile(net, qnn.Options{})
	if err != nil {
		p.fail(err)
		return
	}
	frame := make(fixed.Vec, one.Len())
	for i, v := range one.Data() {
		frame[i] = qnet.InFmt.FromFloat(float64(v))
	}
	per := map[string][]float64{}
	for r := 0; r <= p.reps(); r++ {
		q := qnn.QTensor{Shape: one.Shape(), Data: frame, Fmt: qnet.InFmt}
		for _, l := range qnet.Layers {
			t0 := time.Now()
			q = l.Forward(q)
			if d := time.Since(t0).Seconds(); r > 0 {
				per[l.Name()] = append(per[l.Name()], d)
			}
		}
	}
	for _, k := range navLayers {
		p.out["qnn.fwd_b1_us."+k] = scaled(per[k], 1e6)
	}
}

// env: one simulator step and one depth-image render on the test world.
func (p *probes) env() {
	w := env.IndoorApartment(p.c.seed)
	w.Seed(p.c.seed + 1)
	w.Spawn()
	rng := rand.New(rand.NewSource(p.c.seed + 24))
	var res env.StepResult
	p.time("env.step_us", 1e6, 200, func() { res = w.Step(env.Action(rng.Intn(int(env.NumActions)))) })
	p.time("env.depth_image_us", 1e6, 200, func() { env.DepthImage(res.Depths, w.Camera.MaxRange) })
}

// rl: the agent's per-step and per-update entry points at batch 32, with the
// replay filled the way the online loop fills it (boundary features cached
// under L3).
func (p *probes) rl() {
	spec := nn.NavNetSpec()
	opts := rl.Options{Seed: p.c.seed + 2, BatchSize: onlineBatch, LR: 0.001, EpsStart: 0.5}
	p.time("rl.deploy_ms", 1e3, 3, func() {
		_, err := transfer.Deploy(p.snap, spec, nn.L3, opts)
		p.fail(err)
	})
	for _, cfg := range []nn.Config{nn.L3, nn.E2E} {
		agent, err := transfer.Deploy(p.snap, spec, cfg, opts)
		if err != nil {
			p.fail(err)
			return
		}
		rng := rand.New(rand.NewSource(p.c.seed + 25))
		boundary := agent.Net.TrainFrom()
		var ts []rl.Transition
		for i := 0; i < 2*onlineBatch; i++ {
			t := rl.Transition{
				State: randTensor(rng, spec.InputC, spec.InputH, spec.InputW), Action: i % nn.NavNetActions,
				Reward: rng.Float64(), Next: randTensor(rng, spec.InputC, spec.InputH, spec.InputW),
			}
			if boundary > 0 {
				t.Feat = agent.Net.ForwardRange(0, boundary, t.State.Clone())
				t.NextFeat = agent.Net.ForwardRange(0, boundary, t.Next.Clone())
			}
			ts = append(ts, t)
			agent.Observe(t)
		}
		name, inner := "rl.train_step_ms.l3", 20
		if cfg == nn.E2E {
			name, inner = "rl.train_step_ms.e2e", 2
		}
		p.time(name, 1e3, inner, func() { agent.TrainStep() })
		if cfg == nn.E2E {
			continue
		}
		i := 0
		p.time("rl.select_action_us", 1e6, 100, func() { agent.SelectAction(ts[i%len(ts)].State); i++ })
		p.time("rl.observe_us", 1e6, 1000, func() { agent.Observe(ts[i%len(ts)]); i++ })
		buf := rl.NewReplayBuffer(4096)
		for _, t := range ts {
			buf.Push(t)
		}
		dst := make([]rl.Transition, 0, onlineBatch)
		p.time("rl.replay_sample_us", 1e6, 1000, func() { dst = buf.SampleInto(dst[:0], onlineBatch, rng) })
	}
}

// systolic: host time of the PE-array emulation, with its simulated cycle
// count beside it — a simulator speed-up must leave the cycles identical.
func (p *probes) systolic() {
	spec := nn.NavNetSpec()
	rng := rand.New(rand.NewSource(p.c.seed + 26))
	b, err := nn.NewBackendFor("systolic", p.net(nn.E2E), spec, nn.E2E)
	if err != nil {
		p.fail(err)
		return
	}
	one := randTensor(rng, spec.InputC, spec.InputH, spec.InputW)
	batch := randTensor(rng, onlineBatch, spec.InputC, spec.InputH, spec.InputW)
	p.time("hw.systolic_infer_b1_us", 1e6, 3, func() { b.Infer(one) })
	p.time("hw.systolic_infer_b32_us", 1e6, 1, func() { b.(nn.BatchInferrer).InferBatch(batch) })
}

// simulatedMetrics is everything the hardware model predicts: pure functions
// of the architecture, identical on every host and every run. Units carry a
// sim_ prefix so no reader mistakes them for measurements.
func simulatedMetrics() map[string]stat {
	out := map[string]stat{}
	spec := nn.NavNetSpec()
	nav := hw.NewModelFor(spec)
	// The model labels its rows "CONV1+ReLU", "FC3+ReLU": key them by layer.
	byLayer := func(rows []hw.LayerCost) map[string]hw.LayerCost {
		m := map[string]hw.LayerCost{}
		for _, r := range rows {
			name, _, _ := strings.Cut(r.Layer, "+")
			m[name] = r
		}
		return m
	}
	fwd, bwd := byLayer(nav.ForwardTable()), byLayer(nav.BackwardTable(nn.E2E))
	for _, l := range navLayers {
		out["hw.model.fwd_ms."+l] = exact(fwd[l].LatencyMS)
		out["hw.model.bwd_ms."+l] = exact(bwd[l].LatencyMS)
		out["hw.model.energy_mj."+l] = exact(fwd[l].EnergyMJ + bwd[l].EnergyMJ)
	}
	for _, cfg := range []nn.Config{nn.L3, nn.E2E} {
		suffix := map[nn.Config]string{nn.L3: "l3", nn.E2E: "e2e"}[cfg]
		out["modeled_fps."+suffix] = exact(nav.Iteration(cfg, onlineBatch).FPS())
		out["modeled_mj_per_frame."+suffix] = exact(nav.EnergyPerFrameMJ(cfg))
	}

	paper := hw.NewModel()
	latCut, energyCut := paper.Reductions(nn.L4)
	fwdMS, bwdMS := paper.ForwardLatencyMS(), paper.BackwardLatencyMS(nn.E2E)
	out["hw.paper.weights_m"] = exact(float64(paper.Arch.TotalWeights()) / 1e6)
	out["hw.paper.fwd_ms"] = exact(fwdMS)
	out["hw.paper.bwd_e2e_ms"] = exact(bwdMS)
	out["hw.paper.l4_latency_cut_pct"] = exact(latCut)
	out["hw.paper.l4_energy_cut_pct"] = exact(energyCut)
	out["hw.paper.fwd_err_pct"] = exact(100 * (fwdMS - hw.PaperForwardTotal.LatencyMS) / hw.PaperForwardTotal.LatencyMS)
	out["hw.paper.bwd_err_pct"] = exact(100 * (bwdMS - hw.PaperBackwardTotal.LatencyMS) / hw.PaperBackwardTotal.LatencyMS)

	// One inference on the emulated PE array costs the same cycles whatever
	// the weights, so a zero-initialised network prices it.
	if b, err := hw.NewSystolicBackend(spec.Build(), spec, nn.E2E); err == nil {
		b.Infer(tensor.New(spec.InputC, spec.InputH, spec.InputW))
		out["hw.systolic_cycles_per_infer"] = exact(float64(b.Cost().Cycles))
	} else {
		panic(fmt.Sprintf("benchmark: systolic backend over NavNet: %v", err))
	}
	return out
}
