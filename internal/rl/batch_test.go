package rl

import (
	"math/rand"
	"strings"
	"testing"

	"dronerl/internal/allocs"
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
// passes, backward, clip, update, target sync — allocates nothing. The E2E
// step is pinned at GOMAXPROCS 1 only (AllocsPerRun): its batch-8 FC1 GEMMs
// are 1<<20 multiply-adds and fan out at GOMAXPROCS 2, whose goroutines
// allocate. The L3 learner's step from boundary features runs only the FC
// tail, whose largest GEMM (FC2, B·128·64) stays below 1<<20 at this batch of
// 32 (it would fan out from batch 128), so it is pinned at GOMAXPROCS 2.
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

	l3 := NewAgent(nn.NavNetSpec(), nn.L3, Options{Seed: 67, BatchSize: 32, LR: 0.01, TargetSync: 1})
	fillReplay(l3, 64, 68)
	boundary := l3.Net.TrainFrom()
	for i := range l3.replay.buf[:l3.replay.size] {
		tr := &l3.replay.buf[i]
		tr.Feat, tr.NextFeat = l3.Net.ForwardRange(0, boundary, tr.State), l3.Net.ForwardRange(0, boundary, tr.Next)
	}
	if avg := allocs.PerRun(10, func() { l3.TrainStep() }); avg != 0 {
		t.Errorf("steady-state L3 TrainStep from features allocates %v times per call at GOMAXPROCS 2, want 0", avg)
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

// TestTrainStepNamesARowWithNeitherFeaturesNorFrames: once a replay keeps
// features only, a row that lost them too cannot train. TrainStep panics
// naming the row rather than stacking a nil frame.
func TestTrainStepNamesARowWithNeitherFeaturesNorFrames(t *testing.T) {
	a := NewAgent(nn.NavNetSpec(), nn.L3, Options{Seed: 93, BatchSize: 4, ReplayCapacity: 4})
	width := a.boundaryWidth()
	for i := 0; i < 4; i++ {
		a.Observe(Transition{Action: 1, NextFeat: tensor.New(width)}) // the state's rows are lost
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "row 0") || !strings.Contains(msg, "neither") {
			t.Fatalf("TrainStep on a row with neither features nor frames: panic %q", msg)
		}
	}()
	a.TrainStep()
}
