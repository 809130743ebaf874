package rl

import (
	"errors"
	"fmt"

	"dronerl/internal/nn"
)

// This file is the option/validation layer over Options. The historical API
// was a zero-value-defaulted struct, which cannot tell "the caller left
// Gamma alone" apart from "the caller asked for Gamma = 0": setDefaults
// silently replaced every zero with the documented default. The functional
// options below record which fields were set explicitly, so an explicit
// zero survives default resolution where it is meaningful (EpsEnd, GradClip,
// TargetSync, Seed) and is rejected with an error where it is not (Gamma,
// LR, BatchSize, EpsDecaySteps).

// optField is a presence bit for one Options field.
type optField uint32

const (
	fieldGamma optField = 1 << iota
	fieldLR
	fieldBatchSize
	fieldReplayCapacity
	fieldEpsStart
	fieldEpsEnd
	fieldEpsDecaySteps
	fieldTargetSync
	fieldGradClip
	fieldDoubleDQN
	fieldSeed
	fieldEvalBackend
	fieldActors
	fieldSyncEvery
	fieldTrainBackend
)

// isSet reports whether a field was set through a functional option.
func (o *Options) isSet(f optField) bool { return o.explicit&f != 0 }

func (o *Options) mark(f optField) { o.explicit |= f }

// Option mutates an Options under construction. Options returned by the
// With* constructors validate their argument and surface range errors from
// NewOptions instead of silently substituting a default.
type Option func(*Options) error

// NewOptions builds an Options from functional options, resolves the
// documented defaults for everything left unset, and validates the result.
// Unlike a zero-valued struct literal, explicit zeros are honoured: e.g.
// WithEpsilon(0.3, 0) really anneals to zero exploration and WithGradClip(0)
// really disables clipping.
func NewOptions(opts ...Option) (Options, error) {
	var o Options
	for _, fn := range opts {
		if fn == nil {
			continue
		}
		if err := fn(&o); err != nil {
			return Options{}, err
		}
	}
	if err := o.Validate(); err != nil {
		return Options{}, err
	}
	o.setDefaults()
	return o, nil
}

// WithGamma sets the discount factor. Gamma must lie in (0, 1]: a zero or
// negative discount collapses the return to the instantaneous reward and is
// rejected rather than silently replaced by the default.
func WithGamma(g float64) Option {
	return func(o *Options) error {
		if g <= 0 || g > 1 {
			return fmt.Errorf("rl: gamma %v out of range (0, 1]", g)
		}
		o.Gamma = g
		o.mark(fieldGamma)
		return nil
	}
}

// WithLR sets the SGD learning rate (must be > 0).
func WithLR(lr float64) Option {
	return func(o *Options) error {
		if lr <= 0 {
			return fmt.Errorf("rl: learning rate %v must be positive", lr)
		}
		o.LR = lr
		o.mark(fieldLR)
		return nil
	}
}

// WithBatchSize sets the training batch (must be >= 1).
func WithBatchSize(n int) Option {
	return func(o *Options) error {
		if n < 1 {
			return fmt.Errorf("rl: batch size %d must be >= 1", n)
		}
		o.BatchSize = n
		o.mark(fieldBatchSize)
		return nil
	}
}

// WithReplayCapacity bounds the experience buffer (must be >= 1; the
// resolved capacity must also cover one batch, checked by Validate).
func WithReplayCapacity(n int) Option {
	return func(o *Options) error {
		if n < 1 {
			return fmt.Errorf("rl: replay capacity %d must be >= 1", n)
		}
		o.ReplayCapacity = n
		o.mark(fieldReplayCapacity)
		return nil
	}
}

// WithEpsilon sets the linear exploration schedule's endpoints. Both must
// lie in [0, 1] with end <= start; an explicit end of 0 is honoured (the
// schedule anneals to fully greedy).
func WithEpsilon(start, end float64) Option {
	return func(o *Options) error {
		if start < 0 || start > 1 {
			return fmt.Errorf("rl: epsilon start %v out of range [0, 1]", start)
		}
		if end < 0 || end > 1 {
			return fmt.Errorf("rl: epsilon end %v out of range [0, 1]", end)
		}
		if end > start {
			return fmt.Errorf("rl: epsilon end %v exceeds start %v", end, start)
		}
		o.EpsStart, o.EpsEnd = start, end
		o.mark(fieldEpsStart | fieldEpsEnd)
		return nil
	}
}

// WithEpsDecaySteps sets the exploration annealing horizon (must be >= 1).
func WithEpsDecaySteps(n int) Option {
	return func(o *Options) error {
		if n < 1 {
			return fmt.Errorf("rl: epsilon decay steps %d must be >= 1", n)
		}
		o.EpsDecaySteps = n
		o.mark(fieldEpsDecaySteps)
		return nil
	}
}

// WithTargetSync sets the target-network refresh interval. An explicit 0
// disables the target network entirely (the paper's plain Eq. (1)
// bootstrap); negative intervals are rejected.
func WithTargetSync(steps int) Option {
	return func(o *Options) error {
		if steps < 0 {
			return fmt.Errorf("rl: target sync interval %d must be >= 0", steps)
		}
		o.TargetSync = steps
		o.mark(fieldTargetSync)
		return nil
	}
}

// WithDoubleDQN enables Double-DQN action selection. It requires a target
// network, so combining it with WithTargetSync(0) fails Validate instead of
// being silently "fixed".
func WithDoubleDQN(on bool) Option {
	return func(o *Options) error {
		o.DoubleDQN = on
		o.mark(fieldDoubleDQN)
		return nil
	}
}

// WithGradClip bounds the per-batch gradient L-infinity norm. An explicit 0
// disables clipping; negative limits are rejected.
func WithGradClip(limit float64) Option {
	return func(o *Options) error {
		if limit < 0 {
			return fmt.Errorf("rl: gradient clip %v must be >= 0", limit)
		}
		o.GradClip = limit
		o.mark(fieldGradClip)
		return nil
	}
}

// WithEvalBackend selects the compute backend for greedy evaluation and
// deployment by registry name: "float", "quant", or "systolic" (quant's
// replies, priced on the modeled PE array). The name is
// checked against the nn backend registry by Validate, so a typo — or a
// backend whose implementing package is not linked into the binary — fails
// loudly instead of silently evaluating on the float path.
func WithEvalBackend(name string) Option {
	return func(o *Options) error {
		if name == "" {
			return fmt.Errorf("rl: evaluation backend name is empty (registered: %v)", nn.BackendNames())
		}
		o.EvalBackend = name
		o.mark(fieldEvalBackend)
		return nil
	}
}

// WithActors sets the number of concurrent actors of the online-learning
// pipeline. 1 (the default) selects the deterministic serial schedule that
// reproduces the historical loop bit for bit; higher counts run the
// asynchronous actor/learner pipeline with per-actor environments and
// replay shards.
func WithActors(n int) Option {
	return func(o *Options) error {
		if n < 1 {
			return fmt.Errorf("rl: actor count %d must be >= 1", n)
		}
		o.Actors = n
		o.mark(fieldActors)
		return nil
	}
}

// WithSyncEvery sets the learner's policy-publish interval in training
// steps (must be >= 1). Smaller intervals keep actors fresher at the cost
// of more snapshot traffic — and, under E2E on the modeled hardware, more
// NVM writes per published snapshot.
func WithSyncEvery(steps int) Option {
	return func(o *Options) error {
		if steps < 1 {
			return fmt.Errorf("rl: policy sync interval %d must be >= 1", steps)
		}
		o.SyncEvery = steps
		o.mark(fieldSyncEvery)
		return nil
	}
}

// WithTrainBackend selects a trainable compute backend by registry name
// ("quant-train", the 16-bit fixed-point engine with stochastic rounding)
// for the whole TD update: once activated, TrainStep routes every sampled
// minibatch to the backend's own integer forward/backward/update instead of
// the float network's, so the online loop, the distributed learner and the
// curriculum runner all train quantized without further wiring. The name is
// checked against the nn backend registry by Validate, and the registered
// backend must implement nn.TrainableBackend (checked at activation).
func WithTrainBackend(name string) Option {
	return func(o *Options) error {
		if name == "" {
			return fmt.Errorf("rl: train backend name is empty (registered: %v)", nn.BackendNames())
		}
		o.TrainBackend = name
		o.mark(fieldTrainBackend)
		return nil
	}
}

// WithSeed fixes the agent's private RNG. An explicit 0 is a valid seed
// (the struct-literal path historically replaced it with 1).
func WithSeed(seed int64) Option {
	return func(o *Options) error {
		o.Seed = seed
		o.mark(fieldSeed)
		return nil
	}
}

// Validate checks cross-field consistency on the resolved view of o (the
// documented defaults applied to every unset field). It is the explicit
// alternative to the old behaviour of silently repairing inconsistent
// combinations.
func (o Options) Validate() error {
	r := o
	r.setDefaults()
	var errs []error
	if r.Gamma <= 0 || r.Gamma > 1 {
		errs = append(errs, fmt.Errorf("rl: gamma %v out of range (0, 1]", r.Gamma))
	}
	if r.LR <= 0 {
		errs = append(errs, fmt.Errorf("rl: learning rate %v must be positive", r.LR))
	}
	if r.BatchSize < 1 {
		errs = append(errs, fmt.Errorf("rl: batch size %d must be >= 1", r.BatchSize))
	}
	if r.ReplayCapacity < r.BatchSize {
		errs = append(errs, fmt.Errorf("rl: replay capacity %d cannot hold one batch of %d",
			r.ReplayCapacity, r.BatchSize))
	}
	if r.EpsStart < 0 || r.EpsStart > 1 || r.EpsEnd < 0 || r.EpsEnd > 1 {
		errs = append(errs, fmt.Errorf("rl: epsilon schedule [%v, %v] out of range [0, 1]",
			r.EpsStart, r.EpsEnd))
	}
	if r.EpsEnd > r.EpsStart {
		errs = append(errs, fmt.Errorf("rl: epsilon end %v exceeds start %v", r.EpsEnd, r.EpsStart))
	}
	if r.EpsDecaySteps < 1 {
		errs = append(errs, fmt.Errorf("rl: epsilon decay steps %d must be >= 1", r.EpsDecaySteps))
	}
	if r.TargetSync < 0 {
		errs = append(errs, fmt.Errorf("rl: target sync interval %d must be >= 0", r.TargetSync))
	}
	if r.GradClip < 0 {
		errs = append(errs, fmt.Errorf("rl: gradient clip %v must be >= 0", r.GradClip))
	}
	if r.DoubleDQN && r.TargetSync == 0 {
		errs = append(errs, errors.New("rl: DoubleDQN requires a target network (TargetSync > 0)"))
	}
	if r.EvalBackend != "" && !nn.HasBackend(r.EvalBackend) {
		errs = append(errs, fmt.Errorf("rl: unknown evaluation backend %q (registered: %v)",
			r.EvalBackend, nn.BackendNames()))
	}
	if r.TrainBackend != "" {
		if !nn.HasBackend(r.TrainBackend) {
			errs = append(errs, fmt.Errorf("rl: unknown train backend %q (registered: %v)",
				r.TrainBackend, nn.BackendNames()))
		}
		if r.TargetSync == 0 {
			errs = append(errs, errors.New("rl: a train backend keeps its own bootstrap target and requires TargetSync > 0"))
		}
		if r.DoubleDQN {
			errs = append(errs, errors.New("rl: DoubleDQN is not supported with a train backend (the backend owns the TD update)"))
		}
	}
	if r.Actors < 1 {
		errs = append(errs, fmt.Errorf("rl: actor count %d must be >= 1", r.Actors))
	}
	if r.SyncEvery < 1 {
		errs = append(errs, fmt.Errorf("rl: policy sync interval %d must be >= 1", r.SyncEvery))
	}
	return errors.Join(errs...)
}

// Merge returns o with every explicitly-set field of over layered on top.
// Fields over never touched keep o's values (and o's presence bits), so a
// template options set can be specialised by a user-supplied override built
// from functional options.
func (o Options) Merge(over Options) Options {
	out := o
	if over.isSet(fieldGamma) {
		out.Gamma = over.Gamma
	}
	if over.isSet(fieldLR) {
		out.LR = over.LR
	}
	if over.isSet(fieldBatchSize) {
		out.BatchSize = over.BatchSize
	}
	if over.isSet(fieldReplayCapacity) {
		out.ReplayCapacity = over.ReplayCapacity
	}
	if over.isSet(fieldEpsStart) {
		out.EpsStart = over.EpsStart
	}
	if over.isSet(fieldEpsEnd) {
		out.EpsEnd = over.EpsEnd
	}
	if over.isSet(fieldEpsDecaySteps) {
		out.EpsDecaySteps = over.EpsDecaySteps
	}
	if over.isSet(fieldTargetSync) {
		out.TargetSync = over.TargetSync
	}
	if over.isSet(fieldGradClip) {
		out.GradClip = over.GradClip
	}
	if over.isSet(fieldDoubleDQN) {
		out.DoubleDQN = over.DoubleDQN
	}
	if over.isSet(fieldSeed) {
		out.Seed = over.Seed
	}
	if over.isSet(fieldEvalBackend) {
		out.EvalBackend = over.EvalBackend
	}
	if over.isSet(fieldActors) {
		out.Actors = over.Actors
	}
	if over.isSet(fieldSyncEvery) {
		out.SyncEvery = over.SyncEvery
	}
	if over.isSet(fieldTrainBackend) {
		out.TrainBackend = over.TrainBackend
	}
	out.explicit |= over.explicit
	return out
}
