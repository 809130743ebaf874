// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation section. Each benchmark regenerates its artifact and reports
// the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// doubles as the full reproduction run. See EXPERIMENTS.md for the
// paper-vs-measured comparison.
package dronerl

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"

	"dronerl/internal/core"
	"dronerl/internal/dist"
	"dronerl/internal/env"
	"dronerl/internal/hw"
	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/scen"
	"dronerl/internal/serve"
	"dronerl/internal/tensor"
	"dronerl/internal/transfer"
)

// BenchmarkFig1MinFPS regenerates the minimum-FPS table of Fig. 1(b,c):
// fps = v / d_min across six environment classes and four speeds.
func BenchmarkFig1MinFPS(b *testing.B) {
	var rows []hw.MinFPSRow
	for i := 0; i < b.N; i++ {
		rows = MinFPSTableForBench()
	}
	// Indoor 1 at 10 m/s: the table's hardest requirement.
	for _, r := range rows {
		if r.Env == "Indoor 1" && r.Velocity == 10 {
			b.ReportMetric(r.MinFPS, "minfps@10m/s")
		}
	}
}

// MinFPSTableForBench exposes the Fig. 1 generator to the benchmark.
func MinFPSTableForBench() []hw.MinFPSRow { return hw.MinFPSTable(env.Fig1DMin) }

// BenchmarkFig3WeightCensus regenerates the Fig. 3(a) weight table and
// checks the 56,190,341-weight grand total.
func BenchmarkFig3WeightCensus(b *testing.B) {
	spec := nn.ModifiedAlexNetSpec()
	var total int
	for i := 0; i < b.N; i++ {
		rows := spec.WeightCensus()
		if len(rows) == 0 {
			b.Fatal("no census")
		}
		total = spec.TotalWeights()
	}
	b.ReportMetric(float64(total), "weights")
}

// BenchmarkTable1STTMRAM exercises the Table 1 device model: the time and
// energy to stream the full 100 MB weight set out of (read) and into
// (write) the stack.
func BenchmarkTable1STTMRAM(b *testing.B) {
	d := mem.STTMRAM()
	bits := int64(49890688) * 16 // conv+FC1+FC2 weights
	var rd, wr float64
	for i := 0; i < b.N; i++ {
		rd = d.AccessTimeNS(mem.Read, bits)
		wr = d.AccessTimeNS(mem.Write, bits)
	}
	b.ReportMetric(rd/1e6, "read-ms")
	b.ReportMetric(wr/1e6, "write-ms")
}

// BenchmarkFig5MemoryPlan regenerates the Fig. 5 weight mapping and
// reports the flagship (L3) SRAM requirement, 29.4 MB in the paper.
func BenchmarkFig5MemoryPlan(b *testing.B) {
	m := hw.NewModel()
	var plan hw.MemoryPlan
	for i := 0; i < b.N; i++ {
		plan = m.PlanMemory(nn.L3)
	}
	b.ReportMetric(plan.SRAMTotalMB, "sram-MB")
	b.ReportMetric(plan.MRAMTotalMB, "mram-MB")
}

// BenchmarkFig12Forward regenerates the Fig. 12(a) forward table; the
// custom metric is the total forward latency (paper: 11.93 ms).
func BenchmarkFig12Forward(b *testing.B) {
	m := hw.NewModel()
	var total hw.LayerCost
	for i := 0; i < b.N; i++ {
		total = hw.TableTotals(m.ForwardTable())
	}
	b.ReportMetric(total.LatencyMS, "fwd-ms")
	b.ReportMetric(total.EnergyMJ, "fwd-mJ")
}

// BenchmarkFig12Backward regenerates the Fig. 12(b) backward table for the
// E2E baseline (paper: 94.2 ms, 445 mJ).
func BenchmarkFig12Backward(b *testing.B) {
	m := hw.NewModel()
	var total hw.LayerCost
	for i := 0; i < b.N; i++ {
		total = hw.TableTotals(m.BackwardTable(nn.E2E))
	}
	b.ReportMetric(total.LatencyMS, "bwd-ms")
	b.ReportMetric(total.EnergyMJ, "bwd-mJ")
}

// BenchmarkFig13FPS regenerates the Fig. 13(a) FPS chart; metrics are the
// batch-4 frame rates of L4 and E2E (paper: 15 and 3 fps; the model's
// absolute rates are ~2x higher with the same ~4-5x gap).
func BenchmarkFig13FPS(b *testing.B) {
	m := hw.NewModel()
	var pts []hw.FPSPoint
	for i := 0; i < b.N; i++ {
		pts = m.FPSTable()
	}
	for _, p := range pts {
		if p.Batch != 4 {
			continue
		}
		switch p.Config {
		case nn.L4:
			b.ReportMetric(p.FPS, "L4-fps")
		case nn.E2E:
			b.ReportMetric(p.FPS, "E2E-fps")
		}
	}
}

// BenchmarkFig13Summary regenerates the Fig. 13(b) latency/energy summary;
// metrics are the L4-vs-E2E reductions (paper: 79.4% and 83.45%).
func BenchmarkFig13Summary(b *testing.B) {
	m := hw.NewModel()
	var lat, en float64
	for i := 0; i < b.N; i++ {
		lat, en = m.Reductions(nn.L4)
	}
	b.ReportMetric(lat, "latency-cut-%")
	b.ReportMetric(en, "energy-cut-%")
}

// BenchmarkFig9Environments regenerates the four test environments of
// Fig. 9 (procedural worlds standing in for the Unreal Engine scenes).
func BenchmarkFig9Environments(b *testing.B) {
	var worlds []*env.World
	for i := 0; i < b.N; i++ {
		worlds = env.TestEnvironments(int64(i + 1))
	}
	b.ReportMetric(float64(len(worlds)), "envs")
}

// BenchmarkFig10Learning runs a reduced Fig. 10 slice: TL then online RL
// under L3 in the indoor apartment, reporting the final smoothed reward.
// (The full 4-env x 4-config experiment is cmd/figures -artifact fig10.)
func BenchmarkFig10Learning(b *testing.B) {
	spec := nn.NavNetSpec()
	for i := 0; i < b.N; i++ {
		meta := env.IndoorMeta(31)
		snap, _ := transfer.MetaTrain(meta, spec, 300, rl.Options{
			Seed: 31, BatchSize: 4, EpsDecaySteps: 150,
		})
		world := env.IndoorApartment(32)
		res, err := transfer.RunOnline(snap, world, spec, nn.L3, 300, 200, rl.Options{
			Seed: 33, BatchSize: 4, EpsStart: 0.5, EpsDecaySteps: 150,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Training.CumulativeReward(), "reward")
	}
}

// BenchmarkFig11SafeFlight runs a reduced Fig. 11 slice: the L2-vs-E2E
// normalized safe flight distance in the outdoor forest.
func BenchmarkFig11SafeFlight(b *testing.B) {
	scale := core.FlightScale{MetaIters: 250, OnlineIters: 200, EvalSteps: 200, Seed: 5}
	for i := 0; i < b.N; i++ {
		forest := runFlightBench(b, scale).Envs[2]
		if run, ok := forest.Run(nn.L2); ok {
			b.ReportMetric(run.NormalizedSFD, "L2-normSFD")
		}
	}
}

// BenchmarkAblationRicherMeta runs the richer-meta-environment ablation at
// reduced scale: the paper's proposed remedy for the outdoor-town transfer
// gap ("this can be further improved by performing TL on richer
// meta-environments"). At full scale the rich meta lifts town SFD by ~60%.
func BenchmarkAblationRicherMeta(b *testing.B) {
	scale := core.FlightScale{MetaIters: 300, OnlineIters: 250, EvalSteps: 300, Seed: 9}
	for i := 0; i < b.N; i++ {
		e := core.NewRicherMetaExperiment(scale)
		if err := core.Run(context.Background(), e); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(e.Result().ImprovementPct, "town-SFD-gain-%")
	}
}

// BenchmarkAblationWriteLatency sweeps the STT-MRAM write latency and
// reports the E2E-vs-L4 latency ratio at 30 ns (the Table 1 value) and at
// 100 ns — the design-space sensitivity behind the paper's claim that the
// co-design applies to all NVM technologies.
func BenchmarkAblationWriteLatency(b *testing.B) {
	var at30, at100 float64
	for i := 0; i < b.N; i++ {
		for _, wl := range []float64{30, 100} {
			m := hw.NewModel()
			m.MRAM.WriteLatencyNS = wl
			ratio := (m.ForwardLatencyMS() + m.BackwardLatencyMS(nn.E2E)) /
				(m.ForwardLatencyMS() + m.BackwardLatencyMS(nn.L4))
			if wl == 30 {
				at30 = ratio
			} else {
				at100 = ratio
			}
		}
	}
	b.ReportMetric(at30, "E2E/L4@30ns")
	b.ReportMetric(at100, "E2E/L4@100ns")
}

// BenchmarkAblationStereoNoise compares learning with ideal vs stereo-
// quantized depth sensing at reduced scale.
func BenchmarkAblationStereoNoise(b *testing.B) {
	scale := core.FlightScale{MetaIters: 300, OnlineIters: 250, EvalSteps: 300, Seed: 10}
	for i := 0; i < b.N; i++ {
		e := core.NewStereoExperiment(scale)
		if err := core.Run(context.Background(), e); err != nil {
			b.Fatal(err)
		}
		if res := e.Result(); res.SFDIdeal > 0 {
			b.ReportMetric(res.SFDStereo/res.SFDIdeal, "stereo/ideal-SFD")
		}
	}
}

// --- GEMM-path and experiment-engine benchmarks -------------------------
//
// The "Naive" variants reproduce the seed implementation's loops so the
// before/after comparison stays runnable:
//
//	go test -bench='ConvForward|GEMM|FlightEngine' -benchtime=1x
//
// The GEMM kernels promise bit-identical outputs (see internal/tensor), so
// these measure pure speed, not accuracy trade-offs.

// alexConv2 builds the AlexNet-sized CONV2 workload (96 -> 256 channels,
// 5x5 kernel on 27x27 inputs) used as the conv benchmark.
func alexConv2() (*nn.Conv2D, *tensor.Tensor) {
	c := nn.NewConv2D("CONV2", 96, 256, 5, 5, 1, 2)
	in := tensor.New(96, 27, 27)
	fill := func(d []float32) {
		for i := range d {
			d[i] = float32(i%17) * 0.125
		}
	}
	fill(c.Weight.W.Data())
	fill(c.Bias.W.Data())
	c.Weight.MarkChanged()
	c.Bias.MarkChanged()
	fill(in.Data())
	return c, in
}

// naiveConvForward is the seed's nested-loop Conv2D.Forward: one dot product
// per (patch, output channel) pair with no blocking or parallelism.
func naiveConvForward(c *nn.Conv2D, in *tensor.Tensor) *tensor.Tensor {
	h, w := in.Dim(1), in.Dim(2)
	oh := tensor.ConvOutDim(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOutDim(w, c.KW, c.Stride, c.Pad)
	cols := tensor.New(oh*ow, c.InC*c.KH*c.KW)
	tensor.Im2ColInto(cols, in.Reshape(1, c.InC, h, w), c.KH, c.KW, c.Stride, c.Pad)
	out := tensor.New(c.OutC, oh, ow)
	od := out.Data()
	wd := c.Weight.W
	bd := c.Bias.W.Data()
	np := oh * ow
	for p := 0; p < np; p++ {
		patch := cols.Data()[p*cols.Dim(1) : (p+1)*cols.Dim(1)]
		for oc := 0; oc < c.OutC; oc++ {
			row := wd.Data()[oc*wd.Dim(1) : (oc+1)*wd.Dim(1)]
			var s float32
			for k, v := range patch {
				s += row[k] * v
			}
			od[oc*np+p] = s + bd[oc]
		}
	}
	return out
}

func convGFLOPS(b *testing.B, c *nn.Conv2D, oh, ow int, elapsed float64) {
	macs := float64(c.OutC) * float64(oh*ow) * float64(c.InC*c.KH*c.KW)
	b.ReportMetric(2*macs*float64(b.N)/elapsed/1e9, "gflops")
}

// BenchmarkConvForwardNaive is the "before" baseline of the GEMM rewrite.
func BenchmarkConvForwardNaive(b *testing.B) {
	c, in := alexConv2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveConvForward(c, in)
	}
	convGFLOPS(b, c, 27, 27, b.Elapsed().Seconds())
}

// BenchmarkConvForwardGEMM measures the GEMM path at batch one
// (Conv2D.ForwardBatch). Acceptance target: >= 2x over
// BenchmarkConvForwardNaive.
func BenchmarkConvForwardGEMM(b *testing.B) {
	c, in := alexConv2()
	one := in.Reshape(1, 96, 27, 27)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ForwardBatch(one)
	}
	convGFLOPS(b, c, 27, 27, b.Elapsed().Seconds())
}

// naiveMatMul is the seed's ikj MatMul loop without cache blocking.
func naiveMatMul(a, b *tensor.Tensor) *tensor.Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := tensor.New(m, n)
	ad, bd, cd := a.Data(), b.Data(), c.Data()
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// gemmOperands builds the CONV3-shaped GEMM (384 x 2304 times 2304 x 729).
func gemmOperands() (*tensor.Tensor, *tensor.Tensor) {
	a := tensor.New(384, 2304)
	bm := tensor.New(2304, 729)
	for i, d := range [][]float32{a.Data(), bm.Data()} {
		for j := range d {
			d[j] = float32((i+j)%13) * 0.25
		}
	}
	return a, bm
}

// BenchmarkGEMMNaive is the unblocked "before" matrix multiply.
func BenchmarkGEMMNaive(b *testing.B) {
	x, y := gemmOperands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveMatMul(x, y)
	}
}

// BenchmarkGEMMBlocked is the cache-blocked, goroutine-parallel tensor.MatMul.
func BenchmarkGEMMBlocked(b *testing.B) {
	x, y := gemmOperands()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// flightBenchScale is a reduced Fig. 10/11 budget for engine benchmarks.
func flightBenchScale(workers int) core.FlightScale {
	return core.FlightScale{MetaIters: 60, OnlineIters: 60, EvalSteps: 60, Seed: 7, Workers: workers}
}

// runFlightBench runs the flight experiment at scale on scale.Workers workers.
func runFlightBench(b *testing.B, scale core.FlightScale) *core.FlightReport {
	b.Helper()
	e, err := core.NewFlightExperiment(scale)
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Run(context.Background(), e, core.WithWorkers(scale.Workers)); err != nil {
		b.Fatal(err)
	}
	return e.Report()
}

// BenchmarkFlightEngineSerial runs the experiment on the serial schedule
// (Workers = 1).
func BenchmarkFlightEngineSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runFlightBench(b, flightBenchScale(1))
	}
}

// BenchmarkFlightEngineParallel runs the identical experiment fanned across
// GOMAXPROCS workers; by the engine's determinism contract it produces
// bit-identical metrics, so the delta vs BenchmarkFlightEngineSerial is pure
// scheduling gain (1x on a single-core runner, ~Nx on N cores).
func BenchmarkFlightEngineParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runFlightBench(b, flightBenchScale(0))
	}
}

// --- Batched training-path benchmarks -----------------------------------
//
// PR 2's hot path: rl.Agent.TrainStep on the batched forward/backward stack
// (one GEMM per layer per batch, arena-backed workspaces):
//
//	go test -bench='TrainStep|ConvForwardBatch|ConvBackward' -benchmem
//
// cmd/benchjson turns the output into the BENCH_pr2.json CI artifact.

// trainBenchAgent builds a NavNet agent with a replay buffer of live
// (non-terminal) transitions so every sampled minibatch pays the full
// bootstrap-forward cost.
func trainBenchAgent(batch int) *rl.Agent {
	a := rl.NewAgent(nn.NavNetSpec(), nn.E2E, rl.Options{Seed: 17, BatchSize: batch})
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 2*batch; i++ {
		s := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		s.RandN(rng, 1)
		next := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		next.RandN(rng, 1)
		a.Observe(rl.Transition{State: s, Action: i % nn.NavNetActions, Reward: 0.1, Next: next})
	}
	return a
}

// trainBatch is the minibatch size of the TrainStep benchmarks; the paper's
// accelerator sweeps batch 1-32 (Fig. 13(a)) and this is its largest point.
const trainBatch = 32

// BenchmarkTrainStepBatched measures the TD update at batch 32: one GEMM per
// layer per batch, zero steady-state allocations.
func BenchmarkTrainStepBatched(b *testing.B) {
	a := trainBenchAgent(trainBatch)
	a.TrainStep() // warm the workspaces so allocs/op reflects steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TrainStep()
	}
}

// quantTrainBatch is the minibatch of the quantized-training benchmark.
// PR 9's on-device budget point: the paper trains online with tiny batches
// (Sec. IV), so the quant path is measured at batch 4 rather than the
// float path's throughput-oriented 32.
const quantTrainBatch = 4

// benchQuantTrainStep times one fixed-point TD update on the int16 training
// engine (internal/qnn) through rl.Agent.TrainStep: batched Q-format
// forward and backward passes, stochastic-rounding weight update, and the
// STT-MRAM energy charge for the weight write-back.
func benchQuantTrainStep(b *testing.B, cfg nn.Config, batch int) {
	a := rl.NewAgent(nn.NavNetSpec(), cfg,
		rl.Options{Seed: 17, BatchSize: batch, TrainBackend: "quant-train"})
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 2*batch; i++ {
		s := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		s.RandN(rng, 1)
		next := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		next.RandN(rng, 1)
		a.Observe(rl.Transition{State: s, Action: i % nn.NavNetActions, Reward: 0.1, Next: next})
	}
	if err := a.ActivateTrainBackend(); err != nil {
		b.Fatal(err)
	}
	a.TrainStep() // warm the stacking arena and workspace so allocs/op reflects steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TrainStep()
	}
}

// BenchmarkQuantTrainStep is the every-layer-trained update at the
// serial-dataflow batch: E2E, batch 4.
func BenchmarkQuantTrainStep(b *testing.B) {
	benchQuantTrainStep(b, nn.E2E, quantTrainBatch)
}

// BenchmarkQuantTrainStepL3 is the update in the shape the on-board loop
// deploys (benchmark workload online-l3-quant): L3, batch 32 — the frozen
// CONV1/CONV2/FC1 prefix streamed once over the 64 stacked state and next
// rows, FC2–FC4 trained.
func BenchmarkQuantTrainStepL3(b *testing.B) {
	benchQuantTrainStep(b, nn.L3, 32)
}

// quantInferBatch is the stack size of the batched quant-inference
// benchmark, matching the serving daemon's MaxBatch.
const quantInferBatch = 32

// BenchmarkQuantInferBatch measures the fixed-point engine's batched
// inference kernel: one int16 GEMM per layer (AVX2 Dot16 inner loop) for a
// 32-observation stack, with the activation panels reused from the layer
// arena — 0 allocs/op at steady state — and one MRAM weight stream charged
// per batch. Per-row outputs are bit-identical to 32 Infer calls (pinned in
// internal/qnn); compare against BenchmarkQuantInferSerial for the kernel
// gain the serving batcher banks.
func BenchmarkQuantInferBatch(b *testing.B) {
	backend, stack := quantInferWorkload(b)
	bi := backend.(nn.BatchInferrer)
	bi.InferBatch(stack) // warm the panels so allocs/op reflects steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bi.InferBatch(stack)
	}
	b.ReportMetric(float64(quantInferBatch*b.N)/b.Elapsed().Seconds(), "inf/s")
}

// BenchmarkQuantInferSerial is the per-sample reference: the same 32
// observations through 32 single-row quant forwards.
func BenchmarkQuantInferSerial(b *testing.B) {
	backend, stack := quantInferWorkload(b)
	row := nn.NavNetInput * nn.NavNetInput
	obs := make([]*tensor.Tensor, quantInferBatch)
	for s := range obs {
		obs[s] = tensor.FromSlice(append([]float32(nil), stack.Data()[s*row:(s+1)*row]...),
			1, nn.NavNetInput, nn.NavNetInput)
	}
	backend.Infer(obs[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range obs {
			backend.Infer(o)
		}
	}
	b.ReportMetric(float64(quantInferBatch*b.N)/b.Elapsed().Seconds(), "inf/s")
}

// quantInferWorkload builds a quant backend over an initialized NavNet and a
// 32-observation stack of random depth frames.
func quantInferWorkload(b *testing.B) (nn.Backend, *tensor.Tensor) {
	b.Helper()
	spec := nn.NavNetSpec()
	netw := spec.Build()
	netw.Init(rand.New(rand.NewSource(63)))
	backend, err := nn.NewBackendFor("quant", netw, spec, nn.E2E)
	if err != nil {
		b.Fatal(err)
	}
	stack := tensor.New(quantInferBatch, 1, nn.NavNetInput, nn.NavNetInput)
	stack.RandUniform(rand.New(rand.NewSource(64)), 1)
	return backend, stack
}

// convBatch is the batch size of the batched conv-layer benchmarks.
const convBatch = 8

// alexConv2Batch stacks convBatch copies of the AlexNet CONV2 workload.
func alexConv2Batch() (*nn.Conv2D, *tensor.Tensor) {
	c, in := alexConv2()
	batch := tensor.New(convBatch, 96, 27, 27)
	for s := 0; s < convBatch; s++ {
		copy(batch.Data()[s*in.Len():(s+1)*in.Len()], in.Data())
	}
	return c, batch
}

// BenchmarkConvForwardBatchGEMM runs the AlexNet-sized CONV2 forward over
// convBatch stacked samples: the implicit GEMM over each sample's staged
// stride-phase planes, writing into reused workspaces.
func BenchmarkConvForwardBatchGEMM(b *testing.B) {
	c, batch := alexConv2Batch()
	c.ForwardBatch(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ForwardBatch(batch)
	}
	convGFLOPS(b, c, 27, 27, b.Elapsed().Seconds()/convBatch)
}

// BenchmarkConvBackwardBatchGEMM measures the batched backward: the dW GEMM
// over the forward's stride-phase planes and one dCols GEMM per sample.
func BenchmarkConvBackwardBatchGEMM(b *testing.B) {
	c, batch := alexConv2Batch()
	out := c.ForwardBatch(batch)
	grad := out.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ForwardBatch(batch)
		c.BackwardBatch(grad, true)
	}
}

// benchmarkDenseForwardBatchFC1 times Dense.ForwardBatch on NavNet's FC1
// (1024 -> 128, 96 % of the FC weights and frozen under L2/L3/L4) with the
// weights left unchanged between calls, so the layer's cached (In x Out)
// layout is read, never rebuilt: the GEMM alone. Batch 2 is the prefix
// server's flush and the serving pool's typical batch, 32 the training
// minibatch. About half the activations are zero, as after a ReLU.
func benchmarkDenseForwardBatchFC1(b *testing.B, batch int) {
	rng := rand.New(rand.NewSource(14))
	d := nn.NewDense("FC1", 1024, 128)
	d.Init(rng)
	x := tensor.New(batch, 1024)
	x.RandN(rng, 1)
	tensor.ReluInto(x, x)
	d.ForwardBatch(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ForwardBatch(x)
	}
}

// BenchmarkDenseForwardBatchFC1B2 is FC1 at the flush/serving batch size.
func BenchmarkDenseForwardBatchFC1B2(b *testing.B) { benchmarkDenseForwardBatchFC1(b, 2) }

// BenchmarkDenseForwardBatchFC1B32 is FC1 at the training minibatch size.
func BenchmarkDenseForwardBatchFC1B32(b *testing.B) { benchmarkDenseForwardBatchFC1(b, 32) }

// BenchmarkNavNetForward measures the software CNN's inference throughput
// (the quantity the PE array accelerates in hardware).
func BenchmarkNavNetForward(b *testing.B) {
	net := nn.BuildNavNet()
	x := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkNavNetTrainStep measures one batch-4 Q-learning update.
func BenchmarkNavNetTrainStep(b *testing.B) {
	a := rl.NewAgent(nn.NavNetSpec(), nn.E2E, rl.Options{Seed: 9, BatchSize: 4})
	obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
	a.Observe(rl.Transition{State: obs, Action: 0, Reward: 1, Next: obs, Done: true})
	a.Observe(rl.Transition{State: obs, Action: 1, Reward: 0.5, Next: obs, Done: false})
	a.Observe(rl.Transition{State: obs, Action: 2, Reward: 0.2, Next: obs, Done: false})
	a.Observe(rl.Transition{State: obs, Action: 3, Reward: 0, Next: obs, Done: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TrainStep()
	}
}

// BenchmarkDepthScan measures the simulated stereo camera.
func BenchmarkDepthScan(b *testing.B) {
	w := env.OutdoorForest(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Depths()
	}
}

// Online-learning throughput: the headline comparison of the actor/learner
// pipeline. Every sub-benchmark executes the same workload — 512 online RL
// steps over an L3 deployment of a transferred meta-model, one TrainStep per
// 4 env steps — differing only in the schedule: the serial reference loop,
// or the async pipeline at 4 and 8 actors (batched frozen-prefix inference
// across the fleet, learner training concurrently from the replay shards).
// Acceptance target: >= 2x over the serial path at 8 actors.

// onlineBenchIters is the per-op step budget of the online benches.
const onlineBenchIters = 512

// onlineBenchSnapshot meta-trains one shared snapshot for the online benches.
func onlineBenchSnapshot(b *testing.B) *nn.Snapshot {
	b.Helper()
	onlineBenchOnce.Do(func() {
		meta := env.IndoorMeta(1001)
		onlineBenchSnap, _ = transfer.MetaTrain(meta, nn.NavNetSpec(), 200,
			rl.Options{Seed: 1001, BatchSize: 4, EpsDecaySteps: 100})
	})
	return onlineBenchSnap
}

var (
	onlineBenchOnce sync.Once
	onlineBenchSnap *nn.Snapshot
)

func onlineBenchOpts(actors int) rl.Options {
	return rl.Options{
		Seed: 1002, BatchSize: 4, EpsStart: 0.5,
		EpsDecaySteps: onlineBenchIters / 2, LR: 0.001, Actors: actors,
	}
}

// BenchmarkOnlineLearningSerial runs the one-actor schedule: the
// synchronous act→store→train loop.
func BenchmarkOnlineLearningSerial(b *testing.B) { benchmarkOnlineLearningActors(b, 1) }

// benchmarkOnlineLearningActors measures the online loop at a given fleet
// size, one workload for every size.
func benchmarkOnlineLearningActors(b *testing.B, actors int) {
	snap := onlineBenchSnapshot(b)
	spec := nn.NavNetSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agent, err := transfer.Deploy(snap, spec, nn.L3, onlineBenchOpts(actors))
		if err != nil {
			b.Fatal(err)
		}
		w := env.IndoorApartment(1003)
		w.Seed(1004)
		w.Spawn()
		loop, _ := transfer.BuildOnlineLoop(agent, w, spec, nn.L3, onlineBenchIters, 1004)
		b.StartTimer()
		if _, err := loop.Run(context.Background(), onlineBenchIters); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(onlineBenchIters*b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkOnlineLearningActors4 runs the pipeline with a 4-actor fleet.
func BenchmarkOnlineLearningActors4(b *testing.B) { benchmarkOnlineLearningActors(b, 4) }

// BenchmarkOnlineLearningActors8 runs the pipeline with an 8-actor fleet.
func BenchmarkOnlineLearningActors8(b *testing.B) { benchmarkOnlineLearningActors(b, 8) }

// BenchmarkDistributedSteps measures the crash-tolerant distributed
// pipeline on the in-process benchmarks' workload: a learner on a loopback
// TCP listener and 4 wire-protocol actor clients streaming framed
// experience — every transition crosses the socket with its CRC, and every
// publish travels as a broadcast snapshot frame. The steps/s delta against
// BenchmarkOnlineLearningActors4 is the wire protocol's price.
func BenchmarkDistributedSteps(b *testing.B) {
	const remoteActors = 4
	snap := onlineBenchSnapshot(b)
	spec := nn.NavNetSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		agent, err := transfer.Deploy(snap, spec, nn.L3, onlineBenchOpts(1))
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		learner, err := dist.NewLearner(dist.LearnerConfig{
			Agent: agent, Spec: spec, Cfg: nn.L3, Listener: ln,
			ActorSlots: remoteActors, TotalSteps: onlineBenchIters,
			TrainEvery: 1, SyncEvery: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		learnerErr := make(chan error, 1)
		go func() {
			_, err := learner.Run(context.Background())
			learnerErr <- err
		}()
		actorErrs := make(chan error, remoteActors)
		for a := 0; a < remoteActors; a++ {
			go func(a int) {
				w := env.IndoorApartment(1003)
				w.Seed(1004 + 97*int64(a))
				w.Spawn()
				_, err := dist.RunActor(context.Background(), dist.ActorConfig{
					Addr: ln.Addr().String(), Spec: spec, World: w,
					Steps: onlineBenchIters / remoteActors,
					Seed:  1005 + 131*int64(a),
				})
				actorErrs <- err
			}(a)
		}
		for a := 0; a < remoteActors; a++ {
			if err := <-actorErrs; err != nil {
				b.Fatal(err)
			}
		}
		if err := <-learnerErr; err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(onlineBenchIters*b.N)/b.Elapsed().Seconds(), "steps/s")
}

// Serving throughput: the policy-serving daemon's headline comparison.
// Every sub-benchmark pushes the same request stream through the in-process
// serving pipeline (admission queue → worker pool → backend) from
// serveBenchClients concurrent clients; the variants differ only in whether
// the workers may coalesce requests (MaxBatch 32, one batched GEMM pass per
// batch) or must serve single-flight (MaxBatch 1, one forward per request).
// Batched replies are bit-identical to single-flight ones (asserted in
// internal/serve), so the delta is pure throughput. Acceptance target:
// batched beats single-flight on the float backend at 8 clients.

// serveBenchClients is the concurrency of the serving benchmarks.
const serveBenchClients = 8

func benchmarkServeQPS(b *testing.B, backend string, maxBatch int) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(61)))
	s, err := serve.New(serve.Config{
		Snapshot: nn.TakeSnapshot(net, spec.Name),
		Backend:  backend,
		Workers:  2,
		MaxBatch: maxBatch,
		// Greedy coalescing only: the clients are closed-loop, so holding a
		// batch open for stragglers would just time out and bound QPS by
		// the window instead of the math.
		BatchWindow: -1,
		QueueDepth:  4 * serveBenchClients,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer s.Close()

	obs := make([][]float32, serveBenchClients)
	rng := rand.New(rand.NewSource(62))
	for c := range obs {
		obs[c] = make([]float32, nn.NavNetInput*nn.NavNetInput)
		for i := range obs[c] {
			obs[c][i] = rng.Float32()
		}
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < serveBenchClients; c++ {
		n := b.N / serveBenchClients
		if c < b.N%serveBenchClients {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := s.Infer(context.Background(), obs[c]); err != nil {
					b.Error(err)
					return
				}
			}
		}(c, n)
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}

// BenchmarkServeQPSFloatSingleFlight serves one request per forward pass.
func BenchmarkServeQPSFloatSingleFlight(b *testing.B) { benchmarkServeQPS(b, "float", 1) }

// BenchmarkServeQPSFloatBatched coalesces up to 32 requests per pass.
func BenchmarkServeQPSFloatBatched(b *testing.B) { benchmarkServeQPS(b, "float", 32) }

// BenchmarkServeQPSQuantSingleFlight is the fixed-point engine single-flight.
func BenchmarkServeQPSQuantSingleFlight(b *testing.B) { benchmarkServeQPS(b, "quant", 1) }

// BenchmarkServeQPSQuantBatched coalesces on the fixed-point engine: the
// whole batch runs through qnn's batched kernel, one int16 GEMM per layer
// (Dot16 inner loop) instead of per-item execution, with one MRAM weight
// stream charged per batch. Acceptance target: >= 2x over
// ServeQPSQuantSingleFlight at 8 clients, gated in the bench trajectory.
func BenchmarkServeQPSQuantBatched(b *testing.B) { benchmarkServeQPS(b, "quant", 32) }

// BenchmarkServeQPSSystolicSingleFlight is the modeled accelerator single-flight.
func BenchmarkServeQPSSystolicSingleFlight(b *testing.B) { benchmarkServeQPS(b, "systolic", 1) }

// BenchmarkServeQPSSystolicBatched coalesces on the modeled accelerator.
func BenchmarkServeQPSSystolicBatched(b *testing.B) { benchmarkServeQPS(b, "systolic", 32) }

// Swarm-mission throughput: a fleet of world clones sharing one frozen policy
// over one generated world, the fleet's observations stacked into one GEMM
// per layer per tick and the worlds stepped concurrently.

// swarmBenchDrones and swarmBenchSteps size the swarm benchmarks' mission.
const (
	swarmBenchDrones = 8
	swarmBenchSteps  = 64
)

// BenchmarkSwarmSteps flies the fleet in lockstep: one GEMM per layer per
// tick for the whole swarm.
func BenchmarkSwarmSteps(b *testing.B) {
	snap := onlineBenchSnapshot(b)
	agent, err := transfer.Deploy(snap, nn.NavNetSpec(), nn.L3, onlineBenchOpts(1))
	if err != nil {
		b.Fatal(err)
	}
	world, err := scen.Generate(scen.GenSpec{Kind: scen.Indoor, Corridor: 1.2, Density: 3}, 1006)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scen.FlySwarm(agent.Net, world, swarmBenchDrones, swarmBenchSteps, 1007)
	}
	b.ReportMetric(float64(swarmBenchDrones*swarmBenchSteps*b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkGenerateWorld measures the procedural scenario generator and
// doubles as its CI determinism gate: every generated world must hash
// identically to the first one (same spec, same seed -> bit-identical
// world), so a nondeterministic generator fails the bench job outright.
func BenchmarkGenerateWorld(b *testing.B) {
	spec := scen.GenSpec{Kind: scen.Outdoor, Corridor: 3, Density: 1.5, BoxFrac: 0.3, Turbulence: 0.4}
	ref, err := scen.Generate(spec, 1008)
	if err != nil {
		b.Fatal(err)
	}
	want := scen.WorldHash(ref)
	var obstacles int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := scen.Generate(spec, 1008)
		if err != nil {
			b.Fatal(err)
		}
		if got := scen.WorldHash(w); got != want {
			b.Fatalf("generator nondeterministic: hash %s, want %s", got, want)
		}
		obstacles = len(w.Obstacles)
	}
	b.ReportMetric(float64(obstacles), "obstacles")
}
