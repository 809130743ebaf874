package rl

import (
	"cmp"
	"fmt"
	"math/rand"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// Options configures an Agent. Zero fields of a struct literal select the
// documented defaults; With resolves them first, so its explicit zeros stay.
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
	// EvalBackend names the compute backend Greedy flies after the
	// hand-off into evaluation and deployment (HandOff): "float" (the GEMM
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
	// eval backends see what was learned. Greedy flies its words too, and
	// still does after the hand-off unless EvalBackend names another
	// backend. Empty — the default — keeps the float training path.
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

	// resolved marks options built by With: their defaults are already
	// filled, so setDefaults leaves every remaining zero alone — an
	// explicit zero (EpsEnd, GradClip, TargetSync, Seed) survives where the
	// zero-valued struct literal cannot express it.
	resolved bool
}

func (o *Options) setDefaults() {
	if o.resolved {
		return
	}
	if o.Gamma == 0 {
		o.Gamma = 0.95
	}
	if o.LR == 0 {
		o.LR = 0.005
	}
	if o.BatchSize == 0 {
		o.BatchSize = 4
	}
	if o.ReplayCapacity == 0 {
		o.ReplayCapacity = 4096
	}
	if o.EpsStart == 0 {
		o.EpsStart = 1.0
	}
	if o.EpsEnd == 0 {
		o.EpsEnd = 0.05
	}
	if o.EpsDecaySteps == 0 {
		o.EpsDecaySteps = 3000
	}
	if o.TargetSync == 0 {
		o.TargetSync = 64
	}
	if o.GradClip == 0 {
		o.GradClip = 1
	}
	if o.Actors == 0 {
		o.Actors = 1
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 8
	}
	if o.Seed == 0 {
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
	return o.EpsStart + float64((o.EpsEnd-o.EpsStart)*frac) // rounded, so never fused
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

	// policy, when set, serves Greedy instead of the direct float forward
	// pass: the train backend once activated, replaced at the hand-off by
	// the eval backend when the options name one (see Policy).
	policy nn.Backend
	// trainBackend, once activated, owns the whole TD update: TrainStep
	// routes the sampled minibatch here (see ActivateTrainBackend).
	trainBackend nn.TrainableBackend
	// handedOff is set by HandOff; trainCost is the train backend's tally
	// and evalFrom the policy's at that moment (see Substrate).
	handedOff           bool
	trainCost, evalFrom nn.BackendCost
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
}

// Arena slots of the agent's batched training workspace.
const (
	agentSlotStates = iota
	agentSlotNexts
	agentSlotGrad
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
// same transferred weights are evaluated under L2/L3/L4/E2E). Every
// activated backend and the hand-off are dropped — the topology decides
// weight residency in the memory hierarchy, so the backends must be rebuilt.
func (a *Agent) SetConfig(cfg nn.Config) {
	a.Net.SetConfig(cfg)
	a.cfg = cfg
	a.policy, a.trainBackend, a.handedOff = nil, nil, false
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
// read from the shared clock. TestEpsilonSchedule pins it.
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
// reporting whether anything changed. Active backends captured the weights
// as they were when built (the quant and systolic backends compiled them
// into the int16 engine), so a policy swap rebuilds them over the new ones
// — the train backend, and after the hand-off the eval backend — and their
// tallies restart. This is the deployment-side counterpart of the
// pipeline's in-fleet adoption — a deployed drone refreshing its compiled
// policy between missions; see examples/policy_refresh.
func (a *Agent) AdoptPolicy(board *nn.PolicyBoard) (bool, error) {
	v, changed, err := board.Adopt(a.Net, a.policyVersion)
	if err != nil {
		return false, err
	}
	a.policyVersion = v
	if !changed {
		return false, nil
	}
	if a.trainBackend != nil {
		a.policy, a.trainBackend = nil, nil
		if err := a.ActivateTrainBackend(); err != nil {
			return true, err
		}
	}
	if a.handedOff {
		a.handedOff = false
		return true, a.HandOff()
	}
	return true, nil
}

// Greedy returns argmax_a Q(obs, a) without exploration, ties to the lowest
// index: over the Q-values of Policy — the eval backend after the hand-off,
// else the train backend's integer words — or of the float network directly
// (the "float" backend is bit-identical to the direct path).
func (a *Agent) Greedy(obs *tensor.Tensor) int {
	if a.policy != nil {
		return tensor.ArgMaxRow(a.policy.Infer(obs))
	}
	return a.Net.Forward(obs).ArgMax()
}

// Policy returns the backend Greedy flies, for callers that fly it in
// batches (a swarm): a float backend over Net when no backend is active.
func (a *Agent) Policy() nn.Backend {
	if a.policy != nil {
		return a.policy
	}
	return nn.NewFloatBackend(a.Net)
}

// HandOff is the training/evaluation hand-off, called once the final
// policy state is in place and before the greedy flight: the train
// backend's tally so far is recorded as the training cost, and when the
// options name an eval backend it is built over the weights as they are now
// (the quant and systolic backends compile them into the int16 engine) and
// flies Greedy from here on. Later calls are no-ops.
func (a *Agent) HandOff() error {
	if a.handedOff {
		return nil
	}
	if a.trainBackend != nil {
		a.trainCost = a.trainBackend.Cost()
	}
	if name := a.opts.EvalBackend; name != "" {
		b, err := nn.NewBackendFor(name, a.Net, a.spec, a.cfg)
		if err != nil {
			return err
		}
		a.policy = b
	}
	if a.policy != nil {
		a.evalFrom = a.policy.Cost()
	}
	a.handedOff = true
	return nil
}

// Substrate is what an agent flew and trained on and what each charged —
// the one record every report carries.
type Substrate struct {
	// Backend names what Greedy flew after the hand-off: the eval backend,
	// else the train backend's words ("" for the direct float path, and
	// before the hand-off). EvalCost is what it charged after the hand-off.
	Backend  string
	EvalCost nn.BackendCost
	// TrainBackend names the trainable backend ("" for the float training
	// path) and TrainCost what it charged before the hand-off — the
	// STT-MRAM read/write energy and latency of every quantized TD step and
	// of the greedy actions that read its words; until the hand-off, all it
	// charged so far.
	TrainBackend string
	TrainCost    nn.BackendCost
}

// Add sums o's costs into s and takes o's backend names where s has none:
// the merge of repeated runs of one cell.
func (s *Substrate) Add(o Substrate) {
	s.Backend = cmp.Or(s.Backend, o.Backend)
	s.TrainBackend = cmp.Or(s.TrainBackend, o.TrainBackend)
	s.EvalCost.Add(o.EvalCost)
	s.TrainCost.Add(o.TrainCost)
}

// Substrate reports what the agent flew and trained on so far.
func (a *Agent) Substrate() Substrate {
	var s Substrate
	if tb := a.trainBackend; tb != nil {
		s.TrainBackend, s.TrainCost = tb.Name(), tb.Cost()
	}
	if !a.handedOff {
		return s
	}
	s.TrainCost = a.trainCost
	if a.policy != nil {
		s.Backend, s.EvalCost = a.policy.Name(), a.policy.Cost().Sub(a.evalFrom)
	}
	return s
}

// ActivateTrainBackend builds and installs the trainable backend named by
// the options; subsequent TrainStep calls hand the sampled minibatch to it,
// and Greedy flies its words. Call it before the online phase: the backend
// captures the weights as they are now (the quantized engine compiles them
// into fixed-point words), so a transferred policy must be restored first.
// It is a no-op when the options name no train backend or one is already
// active, and an error when the registered backend does not implement
// nn.TrainableBackend.
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
	a.trainBackend, a.policy = tb, tb
	return nil
}

// TrainBackend returns the active trainable backend (nil before
// ActivateTrainBackend, or when the options select the float training path).
func (a *Agent) TrainBackend() nn.TrainableBackend { return a.trainBackend }

// QValues returns the Q-vector for an observation. TestFloatStackGolden
// hashes it.
func (a *Agent) QValues(obs *tensor.Tensor) []float32 {
	return a.Net.Forward(obs).Data()
}

// Observe stores a transition in the agent's private replay buffer. The
// async pipeline bypasses it — actors push straight into their own shard.
func (a *Agent) Observe(t Transition) { a.replay.Push(t) }

// TrainStep runs one training iteration: the N sampled transitions are
// stacked into batch tensors and pushed through one batched target-network
// pass (all next-states), one batched online pass — plus one more under
// Double-DQN for action selection — and one batched backward, followed by a
// single weight update. This is the batch procedure of Fig. 3(b) with one GEMM
// per layer per batch; gradients accumulate in sample order, so the update is
// what N single-sample passes would leave (TestFloatStackGolden pins it).
//
// Where the batch enters the network is one rule for both arithmetics
// (featured): at the training boundary when every sampled row carries the
// boundary features its arm reads, so only the trainable tail runs;
// otherwise at the frames, through the whole network. The two are
// bit-identical: the boundary rows are the values the frozen prefix computes.
// After the first call it allocates nothing. It returns the mean squared TD
// error, or -1 when the buffer is still shorter than the batch.
func (a *Agent) TrainStep() float64 {
	o := a.opts
	if a.source().Len() < o.BatchSize {
		return -1
	}
	a.batch = a.source().SampleInto(a.batch[:0], o.BatchSize, a.rng)
	// A trainable backend owns the whole TD update — quantized forward,
	// integer backprop, stochastically-rounded weight write — in its own
	// arithmetic, including the frozen prefix (its compiler freezes the
	// layers below the training boundary).
	if a.trainBackend != nil {
		return a.trainStepBackend()
	}
	var states, nexts *tensor.Tensor
	from := a.Net.TrainFrom()
	if w := a.boundaryWidth(); w > 0 && featured(a.batch, w, floatRows) {
		states = a.bArena.Get(agentSlotStates, o.BatchSize, w)
		nexts = a.bArena.Get(agentSlotNexts, o.BatchSize, w)
		gatherRows(a.batch, w, states.Data(), nexts.Data(), floatRows)
	} else {
		from = 0
		states, nexts = a.stackFrames()
	}
	// The frozen prefix is shared by construction: the online network never
	// updates it and target syncs copy it verbatim, so the boundary features
	// are valid entry points into the online and target tails alike.
	a.tdTargets(from, nexts)
	q := a.Net.ForwardBatchRange(from, len(a.Net.Layers), states).Data()
	return a.finishBatchedStep(q)
}

// boundaryWidth is the length of one boundary-feature row — the fan-in of
// the first trainable layer — or 0 when nothing is frozen (E2E).
func (a *Agent) boundaryWidth() int {
	if boundary := a.Net.TrainFrom(); boundary > 0 {
		if d, ok := a.Net.Layers[boundary].(*nn.Dense); ok {
			return d.In
		}
	}
	return 0
}

// floatRows and wordRows read a transition's boundary rows as the float
// learner and a train backend read them; nil where the row carries none.
func floatRows(tr *Transition) (state, next []float32) {
	if tr.Feat != nil {
		state = tr.Feat.Data()
	}
	if tr.NextFeat != nil {
		next = tr.NextFeat.Data()
	}
	return state, next
}

func wordRows(tr *Transition) (state, next []int16) { return tr.QFeat, tr.QNextFeat }

// featured is TrainStep's one rule, for both arms: the step enters at the
// training boundary only when every sampled row carries the width-long
// boundary rows its arm reads (rows) — the state's, and the next state's
// unless the episode ended. A batch short of one row runs whole from its
// frames. A row whose boundary feature has another width panics, naming it.
func featured[T float32 | int16](batch []Transition, width int, rows func(*Transition) (state, next []T)) bool {
	ok := true
	for i := range batch {
		s, n := rows(&batch[i])
		for _, r := range [2][]T{s, n} {
			if r != nil && len(r) != width {
				panic(fmt.Sprintf("rl: TrainStep row %d carries a boundary feature of %d values, the training boundary takes %d", i, len(r), width))
			}
		}
		ok = ok && s != nil && (n != nil || batch[i].Done)
	}
	return ok
}

// gatherRows stacks a featured batch's boundary rows into states and nexts.
// A finished episode's next-state row is zeroed: its bootstrap is computed
// but never read (the target is just the reward).
func gatherRows[T float32 | int16](batch []Transition, width int, states, nexts []T, rows func(*Transition) (state, next []T)) {
	for i := range batch {
		s, n := rows(&batch[i])
		copy(states[i*width:(i+1)*width], s)
		if dst := nexts[i*width : (i+1)*width]; batch[i].Done {
			clear(dst)
		} else {
			copy(dst, n)
		}
	}
}

// stackFrames stacks the sampled batch's observations into (B, C, H, W)
// views of the agent's workspace. A row missing a frame it needs has lost it
// to a replay that keeps only features, so it panics, naming the row.
func (a *Agent) stackFrames() (states, nexts *tensor.Tensor) {
	b := a.opts.BatchSize
	for i, tr := range a.batch {
		switch {
		case tr.State == nil:
			panic(fmt.Sprintf("rl: TrainStep row %d carries neither its state's boundary features nor its frame", i))
		case tr.Next == nil && !tr.Done:
			panic(fmt.Sprintf("rl: TrainStep row %d carries neither its next state's boundary features nor its frame, and Done is false", i))
		}
	}
	sh := a.batch[0].State.Shape()
	if len(sh) != 3 {
		panic("rl: TrainStep expects CHW observations")
	}
	states = a.bArena.Get(agentSlotStates, b, sh[0], sh[1], sh[2])
	nexts = a.bArena.Get(agentSlotNexts, b, sh[0], sh[1], sh[2])
	n := a.batch[0].State.Len()
	for i, tr := range a.batch {
		if tr.State.Len() != n || tr.Next != nil && tr.Next.Len() != n {
			panic("rl: TrainStep batch mixes observation shapes")
		}
		copy(states.Data()[i*n:(i+1)*n], tr.State.Data())
		if dst := nexts.Data()[i*n : (i+1)*n]; tr.Next != nil {
			copy(dst, tr.Next.Data())
		} else {
			// A terminal transition may omit Next. Feed zeros; the bootstrap
			// row is computed but ignored (the target is just the reward).
			clear(dst)
		}
	}
	return states, nexts
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
			sel := tensor.ArgMaxRow(qo[i*a.actions : (i+1)*a.actions])
			a.targets[i] = o.Gamma * float64(qn[i*a.actions+sel])
		}
	} else {
		for i := range a.targets {
			row := qn[i*a.actions : (i+1)*a.actions]
			a.targets[i] = o.Gamma * float64(row[tensor.ArgMaxRow(row)])
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
		mse += float64(td * td)
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
// is handed to the backend as one nn.TrainBatch — its QFeat/QNextFeat rows
// when the batch is featured in the backend's words, its frames otherwise.
// The backend runs the whole TD(0) update in its own arithmetic; the agent
// keeps only the clock and the target-sync cadence.
func (a *Agent) trainStepBackend() float64 {
	o := a.opts
	b := o.BatchSize
	if cap(a.tbActions) < b {
		a.tbActions = make([]int, b)
		a.tbRewards = make([]float64, b)
		a.tbDone = make([]bool, b)
	}
	actions, rewards, done := a.tbActions[:b], a.tbRewards[:b], a.tbDone[:b]
	for i, tr := range a.batch {
		actions[i], rewards[i], done[i] = tr.Action, tr.Reward, tr.Done
	}
	batch := nn.TrainBatch{Actions: actions, Rewards: rewards, Done: done, Gamma: o.Gamma, LR: o.LR}
	if w := a.boundaryWidth(); w > 0 && featured(a.batch, w, wordRows) {
		if cap(a.tbFeats) < b*w {
			a.tbFeats, a.tbNextFeats = make([]int16, b*w), make([]int16, b*w)
		}
		batch.Feats, batch.NextFeats = a.tbFeats[:b*w], a.tbNextFeats[:b*w]
		gatherRows(a.batch, w, batch.Feats, batch.NextFeats, wordRows)
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
