package rl

import (
	"math/rand"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// countingFeaturizer hands out a fresh word slice per call and counts the
// captures and the greedy steps taken from them.
type countingFeaturizer struct{ calls, greedy int }

func (c *countingFeaturizer) BoundaryFeatures(*tensor.Tensor) []int16 {
	c.calls++
	return make([]int16, 4)
}

func (c *countingFeaturizer) GreedyFrom([]int16) int {
	c.greedy++
	return 0
}

// flyActor takes n steps and returns the transitions.
func flyActor(act *Actor, n int) []Transition {
	trs := make([]Transition, n)
	for i := range trs {
		trs[i], _ = act.Step(int64(i + 1))
	}
	return trs
}

// newTestActor flies the meta-trained NavNet: a fresh one's boundary
// activation is all zeros, which would make any feature comparison vacuous.
func newTestActor(t *testing.T, cfg nn.Config, seed int64) *Actor {
	t.Helper()
	net := nn.NavNetSpec().Build()
	if err := goldenMeta().weights.Restore(net); err != nil {
		t.Fatal(err)
	}
	net.SetConfig(cfg)
	return &Actor{
		Net: net, World: env.IndoorApartment(seed), Rng: rand.New(rand.NewSource(seed)),
		Schedule: Options{EpsStart: 0.5, EpsEnd: 0.5, EpsDecaySteps: 1}, Actions: env.NumActions,
	}
}

// TestActorCapturesFloatFeaturesOncePerFrame: under a frozen prefix each
// frame's boundary activation is computed once and shared by the transition
// it ends and the one it starts, exploration steps included, and equals the
// prefix pass over that frame; under E2E nothing is captured.
func TestActorCapturesFloatFeaturesOncePerFrame(t *testing.T) {
	act := newTestActor(t, nn.L3, 41)
	act.FloatFeatures = true
	trs := flyActor(act, 24)
	boundary := act.Net.TrainFrom()
	for i, tr := range trs {
		if tr.Feat == nil || tr.NextFeat == nil || tr.QFeat != nil {
			t.Fatalf("step %d: Feat %v NextFeat %v QFeat %v", i, tr.Feat != nil, tr.NextFeat != nil, tr.QFeat != nil)
		}
		if i > 0 && trs[i-1].NextFeat != tr.Feat {
			t.Fatalf("step %d: the frame's features were computed twice", i)
		}
		want := act.Net.ForwardRange(0, boundary, tr.State).Data()
		for j, v := range tr.Feat.Data() {
			if v != want[j] {
				t.Fatalf("step %d: Feat[%d] = %v, prefix pass says %v", i, j, v, want[j])
			}
		}
	}

	e2e := newTestActor(t, nn.E2E, 41)
	e2e.FloatFeatures = true
	for i, tr := range flyActor(e2e, 8) {
		if tr.Feat != nil || tr.NextFeat != nil {
			t.Fatalf("E2E step %d captured features", i)
		}
	}
}

// TestActorCapturesQFeaturesOncePerFrame: with a featurizer the actor asks it
// once per frame — n steps see n+1 frames — and makes no float capture, and
// takes every greedy action from it, one GreedyFrom per greedy step and none
// per exploring one.
func TestActorCapturesQFeaturesOncePerFrame(t *testing.T) {
	act := newTestActor(t, nn.L3, 42)
	fz := &countingFeaturizer{}
	act.QFeatures = fz
	// A twin of the actor's exploration stream: one Float64 per step, one
	// Intn more when the step explores (Actor.Rng).
	twin := rand.New(rand.NewSource(42))
	trs := make([]Transition, 16)
	explored := 0
	for i := range trs {
		before := fz.greedy
		trs[i], _ = act.Step(int64(i + 1))
		want := 1
		if twin.Float64() < 0.5 {
			twin.Intn(env.NumActions)
			want = 0
			explored++
		}
		if got := fz.greedy - before; got != want {
			t.Fatalf("step %d: %d GreedyFrom calls, want %d", i, got, want)
		}
	}
	if explored == 0 || explored == len(trs) {
		t.Fatalf("%d of %d steps explored: the schedule does not mix both kinds", explored, len(trs))
	}
	if fz.calls != len(trs)+1 {
		t.Errorf("featurizer called %d times for %d frames", fz.calls, len(trs)+1)
	}
	for i, tr := range trs {
		if tr.QFeat == nil || tr.QNextFeat == nil || tr.Feat != nil {
			t.Fatalf("step %d: QFeat %v QNextFeat %v Feat %v", i, tr.QFeat != nil, tr.QNextFeat != nil, tr.Feat != nil)
		}
		if i > 0 && &trs[i-1].QNextFeat[0] != &tr.QFeat[0] {
			t.Fatalf("step %d: the frame's words were computed twice", i)
		}
	}
}

// TestActorGreedyMatchesFullForward: the greedy action through the cached
// features' tail pass is the full network's argmax, so the split forward
// changes no decision.
func TestActorGreedyMatchesFullForward(t *testing.T) {
	act := newTestActor(t, nn.L3, 43)
	act.FloatFeatures = true
	act.Schedule = Options{EpsStart: 0, EpsEnd: 0, EpsDecaySteps: 1}
	for i, tr := range flyActor(act, 24) {
		if want := act.Net.Forward(tr.State).ArgMax(); tr.Action != want {
			t.Fatalf("step %d: action %d, full forward picks %d", i, tr.Action, want)
		}
	}
}

// TestActorRecapture: after the prefix weights change, Recapture replaces
// the features of the frame in hand, which the next transition starts from.
func TestActorRecapture(t *testing.T) {
	act := newTestActor(t, nn.L3, 44)
	act.FloatFeatures = true
	last := flyActor(act, 4)[3]
	conv := act.Net.Params()[0]
	for j, v := range conv.W.Data() {
		conv.W.Data()[j] = 2 * v
	}
	conv.MarkChanged()
	act.Recapture()
	next, _ := act.Step(5)
	if next.Feat.Equal(last.NextFeat) {
		t.Fatal("Recapture kept the old prefix's features")
	}
	want := act.Net.ForwardRange(0, act.Net.TrainFrom(), next.State).Data()
	for j, v := range next.Feat.Data() {
		if v != want[j] {
			t.Fatalf("Feat[%d] = %v after Recapture, prefix pass says %v", j, v, want[j])
		}
	}
}
