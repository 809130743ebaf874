package serve

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/qnn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
)

// catalogFrames flies count random actions in every catalog world and
// returns the depth observations along the way.
func catalogFrames(count int) []*tensor.Tensor {
	var frames []*tensor.Tensor
	for si, name := range env.ScenarioNames() {
		sc, _ := env.LookupScenario(name)
		w := sc.Build(int64(700 + si))
		w.Spawn()
		rng := rand.New(rand.NewSource(int64(800 + si)))
		frames = append(frames, env.DepthImage(w.Depths(), w.Camera.MaxRange))
		for i := 1; i < count; i++ {
			res := w.Step(env.Action(rng.Intn(env.NumActions)))
			frames = append(frames, env.DepthImage(res.Depths, w.Camera.MaxRange))
		}
	}
	return frames
}

// tdBatch stacks 16 TD transitions of consecutive frames.
func tdBatch(rng *rand.Rand, frames []*tensor.Tensor) nn.TrainBatch {
	const n = 16
	chw := frames[0].Len()
	tb := nn.TrainBatch{
		States:  tensor.New(n, 1, nn.NavNetInput, nn.NavNetInput),
		Nexts:   tensor.New(n, 1, nn.NavNetInput, nn.NavNetInput),
		Actions: make([]int, n),
		Rewards: make([]float64, n),
		Done:    make([]bool, n),
		Gamma:   0.95,
		LR:      0.01,
	}
	for s := 0; s < n; s++ {
		i := rng.Intn(len(frames) - 1)
		copy(tb.States.Data()[s*chw:], frames[i].Data())
		copy(tb.Nexts.Data()[s*chw:], frames[i+1].Data())
		tb.Actions[s] = rng.Intn(nn.NavNetActions)
		tb.Rewards[s] = rng.Float64()*2 - 1
	}
	return tb
}

// TestReloadServesTheTrainedWords is the daemon's state of qnn's
// TestServeAnswersWhatTheDroneTrainsOn: a meta-trained NavNet takes a few
// quant-train steps at L3 and at E2E, the written-back snapshot is reloaded
// into a running quant daemon, and every reply on every catalog scenario's
// frames equals the quant-train backend's Infer bit for bit.
func TestReloadServesTheTrainedWords(t *testing.T) {
	spec := nn.NavNetSpec()
	agent := rl.NewAgent(spec, nn.E2E, rl.Options{Seed: 5, BatchSize: 4, EpsDecaySteps: 75})
	(&rl.OnlineLoop{Agent: agent, Worlds: []*env.World{env.IndoorMeta(5)}}).Run(context.Background(), 150)
	meta := nn.TakeSnapshot(agent.Net, spec.Name)
	frames := catalogFrames(6)

	for _, cfg := range []nn.Config{nn.L3, nn.E2E} {
		t.Run(cfg.String(), func(t *testing.T) {
			net := spec.Build()
			if err := meta.Restore(net); err != nil {
				t.Fatal(err)
			}
			net.SetConfig(cfg)
			tb, err := qnn.NewTrainBackend(net, qnn.TrainOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Snapshot: meta, Backend: "quant", Workers: 1, MaxBatch: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.Start()
			ask := func(f *tensor.Tensor) Reply {
				rep, err := s.Infer(context.Background(), f.Data())
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			before := ask(frames[0]).Q

			rng := rand.New(rand.NewSource(83))
			for step := 0; step < 6; step++ {
				tb.Train(tdBatch(rng, frames)) // writes back into net
			}
			v, err := s.Reload(nn.TakeSnapshot(net, spec.Name))
			if err != nil {
				t.Fatal(err)
			}
			moved := false
			for i, f := range frames {
				rep := ask(f)
				if rep.PolicyVersion != v {
					t.Fatalf("frame %d answered under policy %d, want the reloaded %d", i, rep.PolicyVersion, v)
				}
				if want := tb.Infer(f); !slices.Equal(rep.Q, want) {
					t.Fatalf("frame %d: daemon answers %v, quant-train %v", i, rep.Q, want)
				}
				moved = moved || i == 0 && !slices.Equal(rep.Q, before)
			}
			if !moved {
				t.Fatal("six Train steps left frame 0's answer unchanged: the reload proves nothing")
			}
		})
	}
}
