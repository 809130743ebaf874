package rl

import (
	"math/rand"

	"dronerl/internal/env"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// Actor is one drone's act → step → capture: the only code that collects
// training experience. The serial online loop, every actor of the in-process
// fleet and the remote actor of internal/dist fly it; they differ only in
// where the transitions go and who trains on them.
//
// Each transition carries exactly the boundary features its learner reads,
// computed once per frame, exploration steps included: a frame's features are
// one transition's next-state features and the next one's state features.
type Actor struct {
	// Net is the policy the actor flies: the learner's own network in the
	// serial loop, a private replica in a fleet.
	Net *nn.Network
	// World is the actor's environment.
	World *env.World
	// Rng drives exploration: one Float64 per step, one Intn(Actions) more
	// when the step explores.
	Rng *rand.Rand
	// Schedule supplies the exploration schedule (Options.EpsilonAt).
	Schedule Options
	// Actions is the size of the action space (the Q row).
	Actions int
	// FloatFeatures makes transitions carry the float boundary activation
	// of Net's frozen prefix (Feat/NextFeat), which the float learner's
	// tail step and the dist wire read. Greedy actions then take the
	// trainable tail over it. Nothing is frozen under E2E, so nothing is
	// captured there.
	FloatFeatures bool
	// QFeatures, when set, makes transitions carry a train backend's Q7.8
	// boundary words (QFeat/QNextFeat) instead, and greedy actions take the
	// backend's integer tail over them (GreedyFrom): the actor acts on the
	// words it trains, and never reads Net while it flies. The featurizer is
	// not goroutine-safe: only the actor flying the backend's own agent may
	// set it.
	QFeatures nn.BoundaryFeaturizer

	obs   *tensor.Tensor // the frame in hand, nil before the first Step
	feat  *tensor.Tensor
	qfeat []int16
}

// Step takes one environment step at shared-clock time t: an ε(t)-greedy
// action — the greedy one through the trainable tail over the frame's cached
// features when there are any (the train backend's integer tail over its
// words, else Net's tail over the float activation), through all of Net
// otherwise — then World.Step and the next frame's render and features. It
// returns the transition and the world's step result.
func (a *Actor) Step(t int64) (Transition, env.StepResult) {
	if a.obs == nil {
		a.obs = env.DepthImage(a.World.Depths(), a.World.Camera.MaxRange)
		a.capture()
	}
	var action int
	switch {
	case a.Rng.Float64() < a.Schedule.EpsilonAt(t):
		action = a.Rng.Intn(a.Actions)
	case a.qfeat != nil:
		action = a.QFeatures.GreedyFrom(a.qfeat)
	case a.feat != nil:
		action = a.Net.ForwardRange(a.Net.TrainFrom(), len(a.Net.Layers), a.feat).ArgMax()
	default:
		action = a.Net.Forward(a.obs).ArgMax()
	}
	res := a.World.Step(env.Action(action))
	tr := Transition{
		State: a.obs, Action: action, Reward: res.Reward, Done: res.Crashed,
		Feat: a.feat, QFeat: a.qfeat,
	}
	a.obs = env.DepthImage(res.Depths, a.World.Camera.MaxRange)
	a.capture()
	tr.Next, tr.NextFeat, tr.QNextFeat = a.obs, a.feat, a.qfeat
	return tr, res
}

// Recapture recomputes the features of the frame in hand. Call it after
// anything replaced Net's frozen prefix: what the old one computed is void.
func (a *Actor) Recapture() {
	if a.obs != nil {
		a.capture()
	}
}

// capture computes the features of the frame in hand.
func (a *Actor) capture() {
	switch boundary := a.Net.TrainFrom(); {
	case a.QFeatures != nil:
		a.qfeat = a.QFeatures.BoundaryFeatures(a.obs)
	case a.FloatFeatures && boundary > 0:
		a.feat = a.Net.ForwardRange(0, boundary, a.obs)
	}
}

// Evaluate freezes learning and exploration and flies the agent greedily in
// w for the given number of steps, returning a fresh tracker with the
// resulting statistics. This is how the final safe-flight-distance
// comparison (Fig. 11) is measured.
func Evaluate(w *env.World, a *Agent, steps int) *metrics.FlightTracker {
	tracker := metrics.NewFlightTracker(max(10, steps/4), 10, max(1, steps/200))
	obs := env.DepthImage(w.Depths(), w.Camera.MaxRange)
	for i := 0; i < steps; i++ {
		res := w.Step(env.Action(a.Greedy(obs)))
		tracker.Step(res.Reward, res.Crashed, res.FlightDistance)
		obs = env.DepthImage(res.Depths, w.Camera.MaxRange)
	}
	return tracker
}

// TrackerFor builds the flight tracker an online loop feeds, sized for runs
// of the given iteration count (smoothing windows scale with the run length,
// as the paper's 15000-sample window does for 60k-iteration runs).
func TrackerFor(iterations int) *metrics.FlightTracker {
	return metrics.NewFlightTracker(max(iterations/4, 10), 10, max(1, iterations/200))
}
