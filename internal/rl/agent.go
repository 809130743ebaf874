package rl

import (
	"fmt"
	"math/rand"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// Options configures an Agent. Zero values select the documented defaults.
type Options struct {
	// Gamma is the discount factor of the long-term return (default 0.95).
	Gamma float64
	// LR is the SGD learning rate (default 0.005).
	LR float64
	// BatchSize is the paper's training batch N (default 4).
	BatchSize int
	// ReplayCapacity bounds the experience buffer (default 4096).
	ReplayCapacity int
	// EpsStart/EpsEnd/EpsDecaySteps define the linear exploration
	// schedule (defaults 1.0 -> 0.05 over 3000 steps).
	EpsStart, EpsEnd float64
	EpsDecaySteps    int
	// TargetSync is the interval, in training steps, between copies of
	// the online network into the frozen TD-target network; 0 disables
	// the target network and bootstraps from the online one, which is
	// the paper's plain Eq. (1). The default is 64 — a standard
	// stabilizer for CNN Q-learning that does not change what is
	// learned, only the variance of learning.
	TargetSync int
	// GradClip bounds the per-batch gradient L-infinity norm (default 1).
	GradClip float64
	// DoubleDQN selects actions with the online network but values them
	// with the target network in the TD bootstrap, reducing the
	// max-operator's overestimation bias. It requires a target network
	// (TargetSync > 0) and is off by default — the paper uses the plain
	// Eq. (1) target.
	DoubleDQN bool
	// EvalBackend names the compute backend used for greedy evaluation and
	// deployment once ActivateEvalBackend is called: "float" (the GEMM
	// reference, bit-identical to the backend-less path), "quant" (16-bit
	// fixed-point inference) or "systolic" (the same 16-bit replies priced
	// on the modeled PE array, with energy accounting), resolved through the
	// nn backend registry. Empty — the default — keeps the historical direct
	// float path.
	EvalBackend string
	// TrainBackend names a trainable compute backend ("quant-train", the
	// 16-bit fixed-point engine with stochastic rounding) that takes over
	// the whole TD update once ActivateTrainBackend is called: TrainStep
	// hands the sampled minibatch to the backend's own integer
	// forward/backward/update instead of the float network's, and the
	// backend mirrors its weights back into Net so snapshots, publishes and
	// evaluation see what was learned. Empty — the default — keeps the
	// float training path.
	TrainBackend string
	// Actors is the number of concurrent actors the online-learning
	// pipeline runs (default 1, the deterministic serial schedule that
	// reproduces the historical loop bit for bit). With more than one
	// actor, online learning becomes the asynchronous actor/learner
	// pipeline: actors step private environment copies and feed per-actor
	// replay shards while the learner trains concurrently and publishes
	// policy snapshots.
	Actors int
	// SyncEvery is the learner's policy-publish interval in training steps
	// (default 8): every SyncEvery weight updates the learner publishes a
	// snapshot of the trainable weights, which actors adopt at their next
	// episode boundary. It has no effect with a single actor.
	SyncEvery int
	// Seed fixes the agent's private RNG.
	Seed int64

	// explicit records which fields were set through functional options
	// (see options.go). setDefaults only fills fields whose bit is clear,
	// so an explicit zero (EpsEnd, GradClip, TargetSync, Seed) survives
	// where the zero-valued struct literal historically could not express
	// it.
	explicit optField
}

func (o *Options) setDefaults() {
	if o.Gamma == 0 && !o.isSet(fieldGamma) {
		o.Gamma = 0.95
	}
	if o.LR == 0 && !o.isSet(fieldLR) {
		o.LR = 0.005
	}
	if o.BatchSize == 0 && !o.isSet(fieldBatchSize) {
		o.BatchSize = 4
	}
	if o.ReplayCapacity == 0 && !o.isSet(fieldReplayCapacity) {
		o.ReplayCapacity = 4096
	}
	if o.EpsStart == 0 && !o.isSet(fieldEpsStart) {
		o.EpsStart = 1.0
	}
	if o.EpsEnd == 0 && !o.isSet(fieldEpsEnd) {
		o.EpsEnd = 0.05
	}
	if o.EpsDecaySteps == 0 && !o.isSet(fieldEpsDecaySteps) {
		o.EpsDecaySteps = 3000
	}
	if o.TargetSync == 0 && !o.isSet(fieldTargetSync) {
		o.TargetSync = 64
	}
	if o.GradClip == 0 && !o.isSet(fieldGradClip) {
		o.GradClip = 1
	}
	if o.Actors == 0 && !o.isSet(fieldActors) {
		o.Actors = 1
	}
	if o.SyncEvery == 0 && !o.isSet(fieldSyncEvery) {
		o.SyncEvery = 8
	}
	if o.Seed == 0 && !o.isSet(fieldSeed) {
		o.Seed = 1
	}
}

// EpsilonAt returns the linear exploration schedule's value after n
// environment steps. The schedule is a pure function of the shared clock, so
// it is well-defined no matter how many actors advance the clock
// concurrently; with one actor it reproduces the historical per-agent
// counter exactly.
func (o Options) EpsilonAt(n int64) float64 {
	if n >= int64(o.EpsDecaySteps) {
		return o.EpsEnd
	}
	frac := float64(n) / float64(o.EpsDecaySteps)
	return o.EpsStart + (o.EpsEnd-o.EpsStart)*frac
}

// Agent is a deep Q-learning agent over a discrete action space.
type Agent struct {
	// Net is the online Q-network.
	Net *nn.Network
	// Target is the frozen bootstrap network (nil when disabled).
	Target *nn.Network

	opts    Options
	spec    nn.ArchSpec
	cfg     nn.Config
	actions int
	rng     *rand.Rand
	replay  *ReplayBuffer
	// src, when set, replaces the private replay buffer as TrainStep's
	// sampling source (the async pipeline installs its ReplayShards here).
	src ReplaySource
	// clock is the shared monotonic time base driving the epsilon schedule
	// and target-network sync; private by default, shared with the actors
	// by the async pipeline.
	clock *Clock
	// policyVersion is the last PolicyBoard version adopted (AdoptPolicy).
	policyVersion uint64

	// evalBackend, once activated, serves Greedy instead of the direct
	// float forward pass (see ActivateEvalBackend).
	evalBackend nn.Backend
	// trainBackend, once activated, owns the whole TD update: TrainStep
	// routes the sampled minibatch here (see ActivateTrainBackend).
	trainBackend nn.TrainableBackend
	// Reusable per-sample scalar slices of the train-backend minibatch.
	tbActions []int
	tbRewards []float64
	tbDone    []bool
	// Reusable gathered QFeat/QNextFeat rows of the same minibatch.
	tbFeats, tbNextFeats []int16

	// Reusable training-step buffers: the sampled minibatch, the stacked
	// state/next-state/gradient tensors and the per-sample TD targets.
	// After the first TrainStep they make the whole update allocation-free.
	batch   []Transition
	bArena  tensor.Arena
	targets []float64
	// Tail-path cache-miss queues: observations lacking cached boundary
	// features and the feature rows they fill (see trainStepTail).
	missObs []*tensor.Tensor
	missDst [][]float32
}

// Arena slots of the agent's batched training workspace.
const (
	agentSlotStates = iota
	agentSlotNexts
	agentSlotGrad
	// agentSlotMissing stacks the observations whose boundary features
	// were not cached, for the tail path's batched prefix recompute.
	agentSlotMissing
)

// NewAgent builds an agent for the given architecture and training
// topology. The network is freshly initialized; use Restore/CopyWeightsFrom
// to install transferred weights.
func NewAgent(spec nn.ArchSpec, cfg nn.Config, opts Options) *Agent {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	net := spec.Build()
	net.Init(rng)
	net.SetConfig(cfg)
	a := &Agent{
		Net:     net,
		opts:    opts,
		spec:    spec,
		cfg:     cfg,
		actions: spec.FCs[len(spec.FCs)-1].Out,
		rng:     rng,
		replay:  NewReplayBuffer(opts.ReplayCapacity),
		clock:   NewClock(),
	}
	if opts.TargetSync > 0 {
		a.Target = spec.Build()
		a.syncTarget()
	}
	return a
}

// SetConfig re-freezes the network to a different topology (used when the
// same transferred weights are evaluated under L2/L3/L4/E2E). Any activated
// evaluation backend is dropped — the topology decides weight residency in
// the memory hierarchy, so the backend must be rebuilt.
func (a *Agent) SetConfig(cfg nn.Config) {
	a.Net.SetConfig(cfg)
	a.cfg = cfg
	a.evalBackend = nil
	a.trainBackend = nil
}

func (a *Agent) syncTarget() {
	if a.Target == nil {
		return
	}
	if err := a.Target.CopyWeightsFrom(a.Net); err != nil {
		panic("rl: target network architecture diverged: " + err.Error())
	}
}

// Epsilon returns the current exploration rate under the linear schedule,
// read from the shared clock.
func (a *Agent) Epsilon() float64 {
	return a.opts.EpsilonAt(a.clock.EnvSteps())
}

// SelectAction picks an epsilon-greedy action for the observation and
// advances the exploration schedule (the shared clock's env-step counter).
func (a *Agent) SelectAction(obs *tensor.Tensor) int {
	t := a.clock.TickEnv()
	if a.rng.Float64() < a.opts.EpsilonAt(t) {
		return a.rng.Intn(a.actions)
	}
	return a.Greedy(obs)
}

// Clock exposes the agent's monotonic clock. The async pipeline shares it
// with every actor so the epsilon schedule and target-sync cadence are
// functions of global progress rather than per-goroutine counters.
func (a *Agent) Clock() *Clock { return a.clock }

// SetReplaySource replaces TrainStep's sampling source; nil restores the
// agent's private replay buffer. The async pipeline installs its sharded
// store here so the learner samples what the actors collected.
func (a *Agent) SetReplaySource(s ReplaySource) { a.src = s }

// source returns the active sampling source.
func (a *Agent) source() ReplaySource {
	if a.src != nil {
		return a.src
	}
	return a.replay
}

// AdoptPolicy installs the latest policy published on board into the
// agent's online network when it is newer than the last adopted version,
// reporting whether anything changed. When an evaluation backend is active
// it is rebuilt over the fresh weights: the backend captured the weights as
// they were at activation (the quant and systolic backends compiled them
// into the int16 engine), so a policy swap
// hands off to a backend built over the new ones. This is the
// deployment-side counterpart of the pipeline's in-fleet adoption — a
// deployed drone refreshing its compiled policy between missions; see
// examples/policy_refresh.
func (a *Agent) AdoptPolicy(board *nn.PolicyBoard) (bool, error) {
	v, changed, err := board.Adopt(a.Net, a.policyVersion)
	if err != nil {
		return false, err
	}
	a.policyVersion = v
	if changed && a.evalBackend != nil {
		a.evalBackend = nil
		if err := a.ActivateEvalBackend(); err != nil {
			return true, err
		}
	}
	if changed && a.trainBackend != nil {
		a.trainBackend = nil
		if err := a.ActivateTrainBackend(); err != nil {
			return true, err
		}
	}
	return changed, nil
}

// Greedy returns argmax_a Q(obs, a) without exploration. With an activated
// evaluation backend the Q-values come from that backend — the 16-bit
// integer engine, priced on the modeled PE array or not — otherwise from the
// float network directly (and the "float" backend is bit-identical to the
// direct path, ties included).
func (a *Agent) Greedy(obs *tensor.Tensor) int {
	if a.evalBackend != nil {
		return argmaxRow(a.evalBackend.Infer(obs))
	}
	// With an active train backend the authoritative weights are its
	// integer words; acting through it keeps behaviour consistent with what
	// is being trained (and charges the inference reads to its ledger).
	if a.trainBackend != nil {
		return argmaxRow(a.trainBackend.Infer(obs))
	}
	return a.Net.Forward(obs).ArgMax()
}

// ActivateEvalBackend builds and installs the evaluation backend named by
// the options for subsequent Greedy calls. Call it after training, at the
// hand-off into a greedy evaluation or deployment phase: backends capture
// the weights as they are now (the quant and systolic backends compile them
// into the int16 engine). It is a
// no-op when the options name no backend or one is already active.
func (a *Agent) ActivateEvalBackend() error {
	if a.opts.EvalBackend == "" || a.evalBackend != nil {
		return nil
	}
	b, err := nn.NewBackendFor(a.opts.EvalBackend, a.Net, a.spec, a.cfg)
	if err != nil {
		return err
	}
	a.evalBackend = b
	return nil
}

// EvalBackend returns the active evaluation backend (nil before
// ActivateEvalBackend, or when the options select the direct float path).
func (a *Agent) EvalBackend() nn.Backend { return a.evalBackend }

// ActivateTrainBackend builds and installs the trainable backend named by
// the options; subsequent TrainStep calls hand the sampled minibatch to it.
// Call it before the online phase: the backend captures the weights as they
// are now (the quantized engine compiles them into fixed-point words), so a
// transferred policy must be restored first. It is a no-op when the options
// name no train backend or one is already active, and an error when the
// registered backend does not implement nn.TrainableBackend.
func (a *Agent) ActivateTrainBackend() error {
	if a.opts.TrainBackend == "" || a.trainBackend != nil {
		return nil
	}
	b, err := nn.NewBackendFor(a.opts.TrainBackend, a.Net, a.spec, a.cfg)
	if err != nil {
		return err
	}
	tb, ok := b.(nn.TrainableBackend)
	if !ok {
		return fmt.Errorf("rl: backend %q is not trainable", a.opts.TrainBackend)
	}
	a.trainBackend = tb
	return nil
}

// TrainBackend returns the active trainable backend (nil before
// ActivateTrainBackend, or when the options select the float training path).
func (a *Agent) TrainBackend() nn.TrainableBackend { return a.trainBackend }

// TrainCost returns the active train backend's accumulated hardware cost —
// the STT-MRAM read/write energy and latency of every quantized TD step —
// or the zero value when no train backend is active or it reports no cost.
func (a *Agent) TrainCost() nn.BackendCost {
	if cr, ok := a.trainBackend.(nn.CostReporter); ok {
		return cr.Cost()
	}
	return nn.BackendCost{}
}

// EvalCost returns the active backend's accumulated hardware cost; the
// zero value when no backend is active or it has no cost model.
func (a *Agent) EvalCost() nn.BackendCost {
	if cr, ok := a.evalBackend.(nn.CostReporter); ok {
		return cr.Cost()
	}
	return nn.BackendCost{}
}

// QValues returns the Q-vector for an observation.
func (a *Agent) QValues(obs *tensor.Tensor) []float32 {
	return a.Net.Forward(obs).Data()
}

// Observe stores a transition in the agent's private replay buffer. The
// async pipeline bypasses it — actors push straight into their own shard.
func (a *Agent) Observe(t Transition) { a.replay.Push(t) }

// ReplayLen returns the number of transitions in the active sampling source.
func (a *Agent) ReplayLen() int { return a.source().Len() }

// TrainStep runs one training iteration: the N sampled transitions are
// stacked into batch tensors and pushed through one batched target-network
// pass (all next-states), one batched online pass — plus one more under
// Double-DQN for action selection — and one batched backward, followed by a
// single weight update. This is the batch procedure of Fig. 3(b) with one GEMM
// per layer per batch; gradients accumulate in sample order, so the update is
// what N single-sample passes would leave (TestFloatStackGolden pins it).
// After the first call it allocates nothing. It returns the mean squared TD
// error, or -1 when the buffer is still shorter than the batch.
func (a *Agent) TrainStep() float64 {
	o := a.opts
	if a.source().Len() < o.BatchSize {
		return -1
	}
	a.batch = a.source().SampleInto(a.batch[:0], o.BatchSize, a.rng)
	// A trainable backend owns the whole TD update — quantized forward,
	// integer backprop, stochastically-rounded weight write — including the
	// frozen-prefix handling (its compiler freezes the layers below the
	// training boundary), so it bypasses the float tail path entirely.
	if a.trainBackend != nil {
		return a.trainStepBackend()
	}
	// Frozen-prefix fast path: under a transfer topology the layers below
	// the training boundary never change, so the batch can enter the
	// network at the boundary from cached (or lazily recomputed) features
	// and only the trainable FC tail runs. Bit-identical to the full pass —
	// the boundary rows are the same values the full pass would compute.
	if boundary := a.Net.TrainFrom(); boundary > 0 {
		if d, ok := a.Net.Layers[boundary].(*nn.Dense); ok {
			return a.trainStepTail(boundary, d.In)
		}
	}
	states, nexts := a.stackFrames()
	a.tdTargets(0, nexts)
	// One batched online pass and one batched backward.
	q := a.Net.ForwardBatch(states).Data()
	return a.finishBatchedStep(q)
}

// stackFrames stacks the sampled batch's observations into (B, C, H, W)
// views of the agent's workspace.
func (a *Agent) stackFrames() (states, nexts *tensor.Tensor) {
	b := a.opts.BatchSize
	sh := a.batch[0].State.Shape()
	if len(sh) != 3 {
		panic("rl: TrainStep expects CHW observations")
	}
	states = a.bArena.Get(agentSlotStates, b, sh[0], sh[1], sh[2])
	nexts = a.bArena.Get(agentSlotNexts, b, sh[0], sh[1], sh[2])
	n := a.batch[0].State.Len()
	for i, tr := range a.batch {
		if tr.State.Len() != n {
			panic("rl: TrainStep batch mixes observation shapes")
		}
		copy(states.Data()[i*n:(i+1)*n], tr.State.Data())
		dst := nexts.Data()[i*n : (i+1)*n]
		switch {
		case tr.Next != nil:
			if tr.Next.Len() != n {
				panic("rl: TrainStep batch mixes observation shapes")
			}
			copy(dst, tr.Next.Data())
		case tr.Done:
			// Terminal transitions may omit Next. Feed zeros; the bootstrap
			// row is computed but ignored (the target is just the reward).
			for j := range dst {
				dst[j] = 0
			}
		default:
			panic("rl: TrainStep transition has nil Next but Done is false")
		}
	}
	return states, nexts
}

// trainStepTail is TrainStep's frozen-prefix path: the sampled batch enters
// the network at the training boundary (layer index boundary, a Dense with
// featDim inputs) from cached boundary features, and only the trainable tail
// runs — forward over the bootstrap next-states, forward over the states,
// one batched backward. Transitions without cached features (exploration
// steps, or next-states sampled before the actor backfilled them) get their
// features recomputed through the frozen prefix, so the result is
// bit-identical to the full-network TrainStep on every input mix.
func (a *Agent) trainStepTail(boundary, featDim int) float64 {
	o := a.opts
	b := o.BatchSize
	states := a.bArena.Get(agentSlotStates, b, featDim)
	nexts := a.bArena.Get(agentSlotNexts, b, featDim)
	// First pass: copy cached feature rows, queue the cache misses.
	a.missObs, a.missDst = a.missObs[:0], a.missDst[:0]
	gather := func(dst []float32, feat, obs *tensor.Tensor) {
		if feat != nil {
			if feat.Len() != featDim {
				panic("rl: TrainStep boundary features have the wrong length")
			}
			copy(dst, feat.Data())
			return
		}
		a.missObs = append(a.missObs, obs)
		a.missDst = append(a.missDst, dst)
	}
	for i, tr := range a.batch {
		gather(states.Data()[i*featDim:(i+1)*featDim], tr.Feat, tr.State)
		dst := nexts.Data()[i*featDim : (i+1)*featDim]
		switch {
		case tr.Done:
			// The bootstrap row of a finished episode is computed but
			// ignored (the target is just the reward) — feed zeros, like
			// the full path does for terminals stored without a Next.
			for j := range dst {
				dst[j] = 0
			}
		case tr.Next != nil || tr.NextFeat != nil:
			gather(dst, tr.NextFeat, tr.Next)
		default:
			panic("rl: TrainStep transition has nil Next but Done is false")
		}
	}
	// Second pass: recompute every missing row through the frozen prefix in
	// one batched pass (bit-identical to the per-row pass and to the full
	// path's stacked prefix, per the ForwardBatch row contract). Fully
	// cached batches — the async pipeline's steady state — skip it.
	if m := len(a.missObs); m > 0 {
		sh := a.missObs[0].Shape()
		if len(sh) != 3 {
			panic("rl: TrainStep expects CHW observations")
		}
		stack := a.bArena.Get(agentSlotMissing, m, sh[0], sh[1], sh[2])
		n := a.missObs[0].Len()
		for i, obs := range a.missObs {
			if obs.Len() != n {
				panic("rl: TrainStep batch mixes observation shapes")
			}
			copy(stack.Data()[i*n:(i+1)*n], obs.Data())
		}
		feats := a.Net.ForwardBatchRange(0, boundary, stack)
		if feats.Len() != m*featDim {
			panic("rl: TrainStep boundary features have the wrong length")
		}
		for i, dst := range a.missDst {
			copy(dst, feats.Data()[i*featDim:(i+1)*featDim])
		}
	}
	// The frozen prefix is shared by construction: the online network never
	// updates it and target syncs copy it verbatim, so the boundary features
	// are valid entry points into the online and target tails alike.
	a.tdTargets(boundary, nexts)
	q := a.Net.ForwardBatchRange(boundary, len(a.Net.Layers), states).Data()
	return a.finishBatchedStep(q)
}

// tdTargets fills a.targets with the sampled batch's TD targets (Eq. (1) of
// the paper) from one batched bootstrap pass over the stacked next-states,
// entering the networks at layer from: r, plus the discounted bootstrap when
// the episode continues. Under DoubleDQN the online network chooses the
// bootstrap action and the target network prices it. Rows of finished
// episodes are computed too but ignored — the wasted columns cost far less
// than per-sample passes would.
func (a *Agent) tdTargets(from int, nexts *tensor.Tensor) {
	o := a.opts
	if cap(a.targets) < o.BatchSize {
		a.targets = make([]float64, o.BatchSize)
	}
	a.targets = a.targets[:o.BatchSize]
	bootstrap := a.Net
	if a.Target != nil {
		bootstrap = a.Target
	}
	last := len(a.Net.Layers)
	qn := bootstrap.ForwardBatchRange(from, last, nexts).Data()
	if o.DoubleDQN && a.Target != nil {
		qo := a.Net.ForwardBatchRange(from, last, nexts).Data()
		for i := range a.targets {
			sel := argmaxRow(qo[i*a.actions : (i+1)*a.actions])
			a.targets[i] = o.Gamma * float64(qn[i*a.actions+sel])
		}
	} else {
		for i := range a.targets {
			row := qn[i*a.actions : (i+1)*a.actions]
			a.targets[i] = o.Gamma * float64(row[argmaxRow(row)])
		}
	}
	for i, tr := range a.batch {
		if tr.Done {
			a.targets[i] = tr.Reward
		} else {
			a.targets[i] += tr.Reward
		}
	}
}

// finishBatchedStep turns the batched Q-output into the TD gradient, runs
// the batched backward and the weight update, and advances the train clock —
// the shared tail of the full and frozen-prefix TrainStep paths.
func (a *Agent) finishBatchedStep(q []float32) float64 {
	o := a.opts
	grad := a.bArena.Get(agentSlotGrad, o.BatchSize, a.actions)
	grad.Zero()
	gd := grad.Data()
	var mse float64
	for i, tr := range a.batch {
		td := float64(q[i*a.actions+tr.Action]) - a.targets[i]
		mse += td * td
		gd[i*a.actions+tr.Action] = float32(td)
	}
	a.Net.BackwardBatch(grad)
	if o.GradClip > 0 {
		a.Net.ClipGrad(o.GradClip)
	}
	a.Net.Step(o.LR, o.BatchSize)
	ts := a.clock.TickTrain()
	if a.Target != nil && ts%int64(o.TargetSync) == 0 {
		a.syncTarget()
	}
	return mse / float64(o.BatchSize)
}

// trainStepBackend is TrainStep's trainable-backend path: the sampled batch
// is handed to the backend as one nn.TrainBatch — gathered from QFeat and
// QNextFeat when every sampled transition carries the backend's own boundary
// features, otherwise stacked into the agent's workspace tensors exactly like
// the float path (Done rows of the next-state stack hold zeros and contribute
// no bootstrap). The backend runs the whole TD(0) update in its own
// arithmetic; the agent keeps only the clock and the target-sync cadence.
func (a *Agent) trainStepBackend() float64 {
	o := a.opts
	b := o.BatchSize
	if cap(a.tbActions) < b {
		a.tbActions = make([]int, b)
		a.tbRewards = make([]float64, b)
		a.tbDone = make([]bool, b)
	}
	actions, rewards, done := a.tbActions[:b], a.tbRewards[:b], a.tbDone[:b]
	f := len(a.batch[0].QFeat)
	for i, tr := range a.batch {
		actions[i], rewards[i], done[i] = tr.Action, tr.Reward, tr.Done
		if len(tr.QFeat) != f || !tr.Done && len(tr.QNextFeat) != f {
			f = 0
		}
	}
	batch := nn.TrainBatch{Actions: actions, Rewards: rewards, Done: done, Gamma: o.Gamma, LR: o.LR}
	if f > 0 {
		if cap(a.tbFeats) < b*f {
			a.tbFeats, a.tbNextFeats = make([]int16, b*f), make([]int16, b*f)
		}
		batch.Feats, batch.NextFeats = a.tbFeats[:b*f], a.tbNextFeats[:b*f]
		for i, tr := range a.batch {
			copy(batch.Feats[i*f:(i+1)*f], tr.QFeat)
			if !tr.Done {
				copy(batch.NextFeats[i*f:(i+1)*f], tr.QNextFeat)
			}
		}
	} else {
		batch.States, batch.Nexts = a.stackFrames()
	}
	mse := a.trainBackend.Train(batch)
	ts := a.clock.TickTrain()
	if o.TargetSync > 0 && ts%int64(o.TargetSync) == 0 {
		a.trainBackend.SyncTarget()
		// Keep the float target mirror in lockstep so a later fall-back to
		// the float path bootstraps from the same weights.
		a.syncTarget()
	}
	return mse
}

// argmaxRow returns the index of the maximum value with ties resolving to
// the lowest index, matching tensor.ArgMax.
func argmaxRow(row []float32) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// TrainSteps returns the number of completed weight updates.
func (a *Agent) TrainSteps() int { return int(a.clock.TrainSteps()) }

// EnvSteps returns the number of actions selected so far (the shared
// clock's env-step count — every actor's steps under the async pipeline).
func (a *Agent) EnvSteps() int { return int(a.clock.EnvSteps()) }

// BatchSize exposes the configured training batch.
func (a *Agent) BatchSize() int { return a.opts.BatchSize }

// Actors exposes the configured actor count of the online pipeline.
func (a *Agent) Actors() int { return a.opts.Actors }

// Options returns a copy of the agent's resolved options — the distributed
// learner reads the schedules (epsilon, replay capacity) from it to hand
// them to remote actors over the wire.
func (a *Agent) Options() Options { return a.opts }

// Spec returns the architecture the agent was built for.
func (a *Agent) Spec() nn.ArchSpec { return a.spec }

// Config returns the training topology the agent's network is frozen at.
func (a *Agent) Config() nn.Config { return a.cfg }
