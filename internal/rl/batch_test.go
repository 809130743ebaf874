package rl

import (
	"math/rand"
	"testing"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// fillReplay pushes n varied transitions (random observations, actions,
// rewards, occasional terminals) into the agent's buffer, identically for
// every agent given the same seed.
func fillReplay(a *Agent, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		s.RandN(rng, 1)
		next := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		next.RandN(rng, 1)
		a.Observe(Transition{
			State:  s,
			Action: rng.Intn(nn.NavNetActions),
			Reward: rng.Float64()*2 - 1,
			Next:   next,
			Done:   rng.Float64() < 0.2,
		})
	}
}

func paramsEqual(t *testing.T, label string, x, y *nn.Network) {
	t.Helper()
	xp, yp := x.Params(), y.Params()
	for i := range xp {
		if !xp[i].W.Equal(yp[i].W) {
			t.Errorf("%s: weight %s diverges", label, xp[i].Name)
		}
		if !xp[i].G.Equal(yp[i].G) {
			t.Errorf("%s: gradient %s diverges", label, xp[i].Name)
		}
	}
}

// TestSampleIntoMatchesSample pins that Sample and SampleInto draw the same
// rng stream, and the capacity-reuse behavior.
func TestSampleIntoMatchesSample(t *testing.T) {
	r := NewReplayBuffer(16)
	for i := 0; i < 10; i++ {
		r.Push(Transition{Action: i})
	}
	a := r.Sample(6, rand.New(rand.NewSource(7)))
	b := r.SampleInto(nil, 6, rand.New(rand.NewSource(7)))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Action != b[i].Action {
			t.Errorf("draw %d: Sample %d != SampleInto %d", i, a[i].Action, b[i].Action)
		}
	}
	// Reused slice: no growth beyond its capacity.
	buf := make([]Transition, 0, 6)
	out := r.SampleInto(buf, 6, rand.New(rand.NewSource(8)))
	if &out[0] != &buf[:1][0] {
		t.Error("SampleInto must reuse the destination's capacity")
	}
}

// TestTrainStepZeroAllocSteadyState pins the headline memory contract: after
// warm-up a full batched training step — sampling, batching, three network
// passes, backward, clip, update, target sync — allocates nothing.
func TestTrainStepZeroAllocSteadyState(t *testing.T) {
	a := NewAgent(nn.NavNetSpec(), nn.E2E, Options{
		Seed: 65, BatchSize: 8, LR: 0.01, TargetSync: 1, DoubleDQN: true,
	})
	fillReplay(a, 32, 66)
	a.TrainStep() // warm-up
	a.TrainStep()
	if avg := testing.AllocsPerRun(10, func() { a.TrainStep() }); avg != 0 {
		t.Errorf("steady-state TrainStep allocates %v times per call, want 0", avg)
	}
}

// TestTrainStepAcceptsNilNextOnTerminal pins that a terminal transition's Next
// is never read: storing terminals without a next observation, or with an
// arbitrary one, leaves the same training trajectory.
func TestTrainStepAcceptsNilNextOnTerminal(t *testing.T) {
	fill := func(a *Agent, terminalNext bool) {
		rng := rand.New(rand.NewSource(91))
		for i := 0; i < 24; i++ {
			s := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
			s.RandN(rng, 1)
			tr := Transition{State: s, Action: rng.Intn(nn.NavNetActions), Reward: rng.Float64()*2 - 1}
			next := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
			next.RandN(rng, 1)
			if tr.Done = i%4 == 0; !tr.Done || terminalNext {
				tr.Next = next
			}
			a.Observe(tr)
		}
	}
	opts := Options{Seed: 92, BatchSize: 8, LR: 0.01, TargetSync: 2}
	without := NewAgent(nn.NavNetSpec(), nn.E2E, opts)
	with := NewAgent(nn.NavNetSpec(), nn.E2E, opts)
	fill(without, false)
	fill(with, true)
	for step := 0; step < 3; step++ {
		if m0, m1 := without.TrainStep(), with.TrainStep(); m0 != m1 {
			t.Errorf("step %d: MSE %v without terminal Next != %v with it", step, m0, m1)
		}
	}
	paramsEqual(t, "nil-next", without.Net, with.Net)
}
