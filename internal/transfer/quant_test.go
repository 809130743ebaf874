package transfer

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/qnn"
	"dronerl/internal/rl"
)

// TestQuantTrainConvergesNearFloat is the acceptance gate of the quantized
// training path: on the indoor-easy scenario with a fixed seed, online
// learning through the fixed-point engine (stochastic rounding, int16
// words) must end within 10% of the float path's final smoothed reward.
// Both runs share the meta-model, world seed and schedule; only the
// training arithmetic differs.
func TestQuantTrainConvergesNearFloat(t *testing.T) {
	scen, ok := env.LookupScenario("indoor-easy")
	if !ok {
		t.Fatal("indoor-easy scenario not registered")
	}
	spec := nn.NavNetSpec()
	meta := env.IndoorMeta(91)
	snap, _ := MetaTrain(meta, spec, 150, fastOpts(91))

	run := func(backend string) float64 {
		opts := rl.Options{Seed: 92, BatchSize: 4, EpsDecaySteps: 150, ReplayCapacity: 512}
		opts.TrainBackend = backend
		res, err := RunOnline(snap, scen.Build(93), spec, nn.L2, 400, 50, opts)
		if err != nil {
			t.Fatal(err)
		}
		if backend != "" && res.TrainBackend != backend {
			t.Fatalf("online run trained on %q, want %q", res.TrainBackend, backend)
		}
		if backend != "" && res.TrainCost.EnergyMJ <= 0 {
			t.Fatalf("quantized run charged no training energy: %+v", res.TrainCost)
		}
		return res.Training.CumulativeReward()
	}

	floatR := run("")
	quantR := run("quant-train")
	if floatR <= 0 {
		t.Fatalf("float baseline did not learn (final reward %v)", floatR)
	}
	if d := math.Abs(quantR - floatR); d > 0.10*floatR {
		t.Fatalf("quantized final reward %v deviates from float %v by %v (> 10%%)",
			quantR, floatR, d)
	}
}

// trainTap is the quant-train backend with a tap on Train: it records each
// step's MSE, which OnlineLoop.Run discards, and the state and live
// next-state rows of every step that arrived as frames.
type trainTap struct {
	*qnn.TrainBackend
	mse       []float64
	frameRows int
}

func (b *trainTap) Train(batch nn.TrainBatch) float64 {
	if batch.States != nil {
		for _, done := range batch.Done {
			b.frameRows++
			if !done {
				b.frameRows++
			}
		}
	}
	mse := b.TrainBackend.Train(batch)
	b.mse = append(b.mse, mse)
	return mse
}

func init() {
	if err := nn.RegisterBackend("quant-train-tap", func(net *nn.Network, _ nn.ArchSpec, _ nn.Config) (nn.Backend, error) {
		b, err := qnn.NewTrainBackend(net, qnn.TrainOptions{})
		return &trainTap{TrainBackend: b}, err
	}); err != nil {
		panic(err)
	}
}

// TestRunOnlineQuantTrainGolden pins the single-actor online loop on the
// quant-train backend: Deploy + BuildOnlineLoop + Run for 480 seeded steps
// (ring replay wrapping, seven target syncs, crashes) must leave exactly the
// flight tracker, per-step MSE bits, TrainCost, OnlineStats, float mirror,
// integer weight words and final Q-values it left at 7746eab, where every
// step still quantized its frames and ran the frozen prefix over the whole
// stack. The E2E hash was captured there. L2 and L3 were re-captured once,
// when the actor began taking its greedy actions from the backend's integer
// tail over its boundary words instead of a float pass on the mirror: the
// two disagree on near-tie frames, so the flights part ways there. E2E
// freezes nothing and still acts on the mirror.
func TestRunOnlineQuantTrainGolden(t *testing.T) {
	skipOffAMD64(t)
	const steps = 480
	spec := nn.NavNetSpec()
	snap, _ := MetaTrain(env.IndoorMeta(61), spec, 40, fastOpts(61))
	for _, tc := range []struct {
		cfg  nn.Config
		want string
	}{
		{nn.L2, "ecc1ddcb75ca06504d237388d353e3442add272ba2bdde9c1f04f4ad57281674"},
		{nn.L3, "3123c317d6ac349684da2f1a9e0aab7a86842884b1e008a4d3ac36f5333cb003"},
		{nn.E2E, "ac79c97cd5b38bb5894d357fc338aa95580c697c101e139a3851820576eea630"},
	} {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			opts := rl.Options{Seed: 63, BatchSize: 8, EpsDecaySteps: 200, ReplayCapacity: 256,
				TargetSync: 16, TrainBackend: "quant-train-tap"}
			agent, err := Deploy(snap, spec, tc.cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			world := env.IndoorApartment(62)
			loop, _ := BuildOnlineLoop(agent, world, spec, tc.cfg, steps, 63+7700)
			stats, err := loop.Run(context.Background(), steps)
			if err != nil {
				t.Fatal(err)
			}
			tap := agent.TrainBackend().(*trainTap)
			if len(tap.mse) != stats.TrainSteps || stats.TrainSteps < 4*opts.TargetSync || loop.Tracker.Crashes() == 0 {
				t.Fatalf("run too tame to pin: %d taps for %d train steps, %d crashes",
					len(tap.mse), stats.TrainSteps, loop.Tracker.Crashes())
			}

			h := sha256.New()
			var buf [8]byte
			put := func(v uint64) {
				binary.LittleEndian.PutUint64(buf[:], v)
				h.Write(buf[:])
			}
			putNet := func(net *nn.Network) {
				for _, p := range net.Params() {
					for _, v := range p.W.Data() {
						put(uint64(math.Float32bits(v)))
					}
				}
			}
			hashTracker(h, loop.Tracker)
			for _, mse := range tap.mse {
				put(math.Float64bits(mse))
			}
			cost := agent.TrainCost()
			put(uint64(cost.Inferences))
			put(math.Float64bits(cost.EnergyMJ))
			put(math.Float64bits(cost.LatencyMS))
			put(uint64(cost.Cycles))
			for _, v := range []int{stats.Actors, stats.EnvSteps, stats.TrainSteps, stats.Publishes, stats.Adoptions} {
				put(uint64(v))
			}
			putNet(agent.Net)
			// The integer words themselves: dequantizing an int16 into a
			// float32 loses nothing, so writing the trainable words back into
			// a blank net exposes them; the frozen words answer through Infer.
			words := spec.Build()
			if err := tap.Online().WriteBack(words); err != nil {
				t.Fatal(err)
			}
			putNet(words)
			for _, q := range tap.Infer(env.DepthImage(world.Depths(), world.Camera.MaxRange)) {
				put(uint64(math.Float32bits(q)))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("quant-train online run moved: hash %s, want %s", got, tc.want)
			}
			tr := loop.Tracker
			t.Logf("%s: %d crashes in %d steps, smoothed reward %.4f, safe flight distance %.3f m",
				tc.cfg, tr.Crashes(), tr.Steps(), tr.CumulativeReward(), tr.SafeFlightDistance())
			// Not in the hash: 7746eab had no such counter (the constants were
			// captured there with this block cut). With a prefix frozen every
			// step must arrive as boundary features; under E2E there are none
			// and the backend is handed frames.
			if frozen := tc.cfg != nn.E2E; frozen != (tap.frameRows == 0) {
				t.Errorf("the backend was handed %d rows as frames; frozen prefix: %v", tap.frameRows, frozen)
			}
		})
	}
}
