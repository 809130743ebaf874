package rl

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"

	_ "dronerl/internal/hw" // register the quant-train backend
)

// TestTrainStepRoutesToTrainBackend asserts the trainable-backend wiring:
// once activated, TrainStep hands the sampled minibatch to the backend (the
// quantized fixed-point engine), which updates the agent's float network in
// place and accrues STT-MRAM training cost.
func TestTrainStepRoutesToTrainBackend(t *testing.T) {
	opts := Options{Seed: 71, BatchSize: 4, LR: 0.01, TargetSync: 2, EpsDecaySteps: 10}
	opts.TrainBackend = "quant-train"
	a := NewAgent(nn.NavNetSpec(), nn.E2E, opts)
	if err := a.ActivateTrainBackend(); err != nil {
		t.Fatal(err)
	}
	if a.TrainBackend() == nil {
		t.Fatal("train backend not active after activation")
	}
	fillReplay(a, 16, 72)
	before := append([]float32(nil), a.Net.Params()[0].W.Data()...)
	for step := 0; step < 3; step++ {
		if mse := a.TrainStep(); mse < 0 {
			t.Fatalf("step %d: TrainStep declined with a full buffer (%v)", step, mse)
		}
	}
	if a.TrainSteps() != 3 {
		t.Fatalf("clock counted %d train steps, want 3", a.TrainSteps())
	}
	after := a.Net.Params()[0].W.Data()
	changed := false
	for i := range before {
		if after[i] != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("backend training did not update the agent's float mirror")
	}
	cost := a.TrainCost()
	if cost.EnergyMJ <= 0 || cost.LatencyMS <= 0 {
		t.Fatalf("no STT-MRAM cost accrued: %+v", cost)
	}
}

// TestTrainBackendReproducible asserts the fixed-seed contract through the
// full agent path: two agents with identical options and replay contents end
// up with bit-identical float mirrors.
func TestTrainBackendReproducible(t *testing.T) {
	build := func() *Agent {
		opts := Options{Seed: 81, BatchSize: 4, LR: 0.01, TargetSync: 2, EpsDecaySteps: 10}
		opts.TrainBackend = "quant-train"
		a := NewAgent(nn.NavNetSpec(), nn.E2E, opts)
		if err := a.ActivateTrainBackend(); err != nil {
			t.Fatal(err)
		}
		fillReplay(a, 16, 82)
		for step := 0; step < 4; step++ {
			a.TrainStep()
		}
		return a
	}
	x, y := build(), build()
	xp, yp := x.Net.Params(), y.Net.Params()
	for i := range xp {
		if !xp[i].W.Equal(yp[i].W) {
			t.Fatalf("weight %s diverges across identical runs", xp[i].Name)
		}
	}
}

// TestWithTrainBackendValidation covers the option-layer rules: unknown
// names, the TargetSync requirement, and the DoubleDQN exclusion.
func TestWithTrainBackendValidation(t *testing.T) {
	if _, err := NewOptions(WithTrainBackend("no-such-backend")); err == nil {
		t.Fatal("unknown train backend accepted")
	}
	if _, err := NewOptions(WithTrainBackend("quant-train"), WithTargetSync(0)); err == nil {
		t.Fatal("train backend without a target network accepted")
	}
	if _, err := NewOptions(WithTrainBackend("quant-train"), WithDoubleDQN(true)); err == nil {
		t.Fatal("train backend with DoubleDQN accepted")
	}
	o, err := NewOptions(WithTrainBackend("quant-train"))
	if err != nil {
		t.Fatal(err)
	}
	if o.TrainBackend != "quant-train" {
		t.Fatalf("TrainBackend %q", o.TrainBackend)
	}
	over, err := Options{Seed: 3}.With(WithTrainBackend("quant-train"))
	if err != nil || over.TrainBackend != "quant-train" {
		t.Fatalf("With dropped TrainBackend: %q, %v", over.TrainBackend, err)
	}
}

// frameTap counts the state and live next-state rows a train backend was
// handed as frames rather than as boundary features.
type frameTap struct {
	nn.TrainableBackend
	frameRows int
}

func (b *frameTap) Train(batch nn.TrainBatch) float64 {
	if batch.States != nil {
		for _, done := range batch.Done {
			b.frameRows++
			if !done {
				b.frameRows++
			}
		}
	}
	return b.TrainableBackend.Train(batch)
}

// TestTrainStepRoutesFeaturesToTrainBackend asserts the boundary-feature arm
// of the trainable-backend path: an agent whose replay carries the backend's
// own QFeat/QNextFeat trains bit for bit like its twin fed frames (MSE, float
// mirror, STT-MRAM cost), gathers without allocating, and hands the backend
// no frame — while the twin hands it every state and live next-state row, and
// a batch with one row uncached falls back to frames visibly.
func TestTrainStepRoutesFeaturesToTrainBackend(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the GEMM's row fan-out allocates
	build := func() *Agent {
		a := NewAgent(nn.NavNetSpec(), nn.L3, Options{
			Seed: 83, BatchSize: 32, LR: 0.01, TargetSync: 2, TrainBackend: "quant-train",
		})
		if err := a.ActivateTrainBackend(); err != nil {
			t.Fatal(err)
		}
		fillReplay(a, 48, 84)
		return a
	}
	stored := func(a *Agent) []Transition { return a.replay.buf[:a.replay.size] }
	rowsOf := func(a *Agent) int {
		rows := len(a.batch)
		for _, tr := range a.batch {
			if !tr.Done {
				rows++
			}
		}
		return rows
	}
	frames, feats := build(), build()
	fz := feats.TrainBackend().(nn.BoundaryFeaturizer)
	for i := range stored(feats) {
		tr := &stored(feats)[i]
		tr.QFeat, tr.QNextFeat = fz.BoundaryFeatures(tr.State), fz.BoundaryFeatures(tr.Next)
	}
	framesTap := &frameTap{TrainableBackend: frames.trainBackend}
	featsTap := &frameTap{TrainableBackend: feats.trainBackend}
	frames.trainBackend, feats.trainBackend = framesTap, featsTap
	wantRows := 0
	for step := 0; step < 4; step++ {
		m0, m1 := frames.TrainStep(), feats.TrainStep()
		if math.Float64bits(m0) != math.Float64bits(m1) {
			t.Fatalf("step %d: MSE %v from frames, %v from features", step, m0, m1)
		}
		wantRows += rowsOf(frames)
	}
	paramsEqual(t, "features vs frames", frames.Net, feats.Net)
	if frames.TrainCost() != feats.TrainCost() {
		t.Errorf("frames cost %+v, features %+v: the modeled device must not see the cache", frames.TrainCost(), feats.TrainCost())
	}
	// The two agents share a seed, hence every sampled batch.
	if framesTap.frameRows != wantRows || featsTap.frameRows != 0 {
		t.Errorf("frame rows: frames %d, want %d; features %d, want 0",
			framesTap.frameRows, wantRows, featsTap.frameRows)
	}
	if allocs := testing.AllocsPerRun(5, func() { feats.TrainStep() }); allocs != 0 {
		t.Errorf("steady-state TrainStep from features allocates %v times per call, want 0", allocs)
	}
	if featsTap.frameRows != 0 {
		t.Errorf("feature-fed steps handed the backend %d frame rows", featsTap.frameRows)
	}
	for i := range stored(feats) {
		if tr := &stored(feats)[i]; !tr.Done {
			tr.QNextFeat = nil
		}
	}
	feats.TrainStep()
	if got, want := featsTap.frameRows, rowsOf(feats); got != want {
		t.Errorf("a batch with uncached rows handed the backend %d frame rows, want all %d", got, want)
	}
}

// quantTrainFlight flies runSerial's schedule — the agent's own actor, rng
// and clock, TrainStep every trainEvery steps — greedily for the given
// number of frames, from the meta-trained NavNet under cfg on the
// quant-train backend. Before the step trains, each action is checked
// against Agent.Greedy on the state it was taken in, which answers through
// TrainBackend.Infer: the flight returns its actions and the number of
// frames where the two differ. poison first overwrites the float mirror's
// frozen CONV1 weights with NaN, which any float pass would read.
func quantTrainFlight(t *testing.T, cfg nn.Config, w *env.World, frames int, poison bool) ([]int, int) {
	t.Helper()
	const trainEvery = 4
	opts, err := NewOptions(WithSeed(101), WithBatchSize(8), WithEpsilon(0, 0), WithEpsDecaySteps(1),
		WithReplayCapacity(256), WithTargetSync(16), WithTrainBackend("quant-train"))
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgent(nn.NavNetSpec(), cfg, opts)
	if err := goldenMeta().weights.Restore(a.Net); err != nil {
		t.Fatal(err)
	}
	if err := a.ActivateTrainBackend(); err != nil {
		t.Fatal(err)
	}
	if poison {
		obs := goldenMeta().pool[0] // w.Depths would draw on the world's noise stream
		clean := a.Net.Forward(obs).Clone()
		conv1 := a.Net.Params()[0]
		for i := range conv1.W.Data() {
			conv1.W.Data()[i] = float32(math.NaN())
		}
		conv1.MarkChanged()
		if q := a.Net.Forward(obs); q.Equal(clean) {
			t.Fatalf("%s: the poisoned mirror still answers %v", cfg, q.Data())
		}
	}
	shards := NewReplayShards(1, opts.ReplayCapacity)
	a.SetReplaySource(shards)
	act := a.actor(a.Net, w, a.rng)
	if act.QFeatures == nil {
		t.Fatalf("%s: the serial actor captures no integer boundary words", cfg)
	}
	// The transitions carry the words and no frame, so the frame each action
	// is taken in is read off the actor: its first one rendered here as Step
	// would render it.
	act.obs = env.DepthImage(w.Depths(), w.Camera.MaxRange)
	act.capture()
	actions, disagree := make([]int, frames), 0
	for i := range actions {
		state := act.obs
		tr, _ := act.Step(a.clock.TickEnv())
		actions[i] = tr.Action
		if tr.Action != a.Greedy(state) {
			disagree++
		}
		shards.PushTo(0, tr)
		if i%trainEvery == 0 {
			a.TrainStep()
		}
	}
	if a.TrainSteps() < 2*opts.TargetSync {
		t.Fatalf("%s: %d train steps, too few to sync the target", cfg, a.TrainSteps())
	}
	return actions, disagree
}

// TestQuantTrainActorActsOnTrainedWords: under a frozen prefix the one-actor
// quant-train loop takes every greedy action from the integer words it trains
// — each equals Agent.Greedy, the backend's Infer, on the frame it was taken
// in — and no float pass is left on the acting path: a twin flight whose
// float mirror has NaN for its frozen CONV1 weights takes the same actions.
func TestQuantTrainActorActsOnTrainedWords(t *testing.T) {
	const frames = 2000
	for _, cfg := range []nn.Config{nn.L2, nn.L3} {
		for _, name := range []string{"indoor-apartment", "indoor-easy"} {
			scen, ok := env.LookupScenario(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			actions, disagree := quantTrainFlight(t, cfg, scen.Build(102), frames, false)
			t.Logf("%s %s: %d of %d greedy actions differ from Agent.Greedy", cfg, name, disagree, frames)
			if disagree != 0 {
				t.Errorf("%s %s: the actor does not act on the policy it trains", cfg, name)
			}
			if name != "indoor-apartment" {
				continue
			}
			poisoned, _ := quantTrainFlight(t, cfg, scen.Build(102), frames, true)
			if !slices.Equal(poisoned, actions) {
				t.Errorf("%s %s: a NaN float mirror moves the actions: the actor still reads it", cfg, name)
			}
		}
	}
}
