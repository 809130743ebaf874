package rl

import (
	"errors"
	"fmt"

	"dronerl/internal/nn"
)

// This file is the option/validation layer over Options. A zero-valued
// Options literal cannot tell "the caller left Gamma alone" apart from "the
// caller asked for Gamma = 0": setDefaults replaces every zero with the
// documented default. Options built through With resolve the defaults
// first and apply the functional options after, so an explicit zero
// survives where it is meaningful (EpsEnd, GradClip, TargetSync, Seed) and
// fails Validate where it is not (Gamma, LR, BatchSize, EpsDecaySteps).

// Option mutates an Options under construction. Range errors surface from
// Validate, which With runs after every option has been applied.
type Option func(*Options) error

// NewOptions builds an Options from functional options over the documented
// defaults; it is Options{}.With(opts...).
func NewOptions(opts ...Option) (Options, error) { return Options{}.With(opts...) }

// With specialises a template: it fills o's zero fields with the documented
// defaults, applies opts on top, validates the result and marks it
// resolved, so a later setDefaults (NewAgent's) leaves its explicit zeros
// alone — WithEpsilon(0.3, 0) really anneals to zero exploration and
// WithGradClip(0) really disables clipping.
func (o Options) With(opts ...Option) (Options, error) {
	o.setDefaults()
	o.resolved = true
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
	return o, nil
}

// WithGamma sets the discount factor. Gamma must lie in (0, 1]: a zero or
// negative discount collapses the return to the instantaneous reward and is
// rejected rather than silently replaced by the default.
func WithGamma(g float64) Option {
	return func(o *Options) error {
		o.Gamma = g
		return nil
	}
}

// WithLR sets the SGD learning rate (must be > 0).
func WithLR(lr float64) Option {
	return func(o *Options) error {
		o.LR = lr
		return nil
	}
}

// WithBatchSize sets the training batch (must be >= 1).
func WithBatchSize(n int) Option {
	return func(o *Options) error {
		o.BatchSize = n
		return nil
	}
}

// WithReplayCapacity bounds the experience buffer (must be >= 1; the
// resolved capacity must also cover one batch, checked by Validate).
func WithReplayCapacity(n int) Option {
	return func(o *Options) error {
		o.ReplayCapacity = n
		return nil
	}
}

// WithEpsilon sets the linear exploration schedule's endpoints. Both must
// lie in [0, 1] with end <= start; an explicit end of 0 is honoured (the
// schedule anneals to fully greedy).
func WithEpsilon(start, end float64) Option {
	return func(o *Options) error {
		o.EpsStart, o.EpsEnd = start, end
		return nil
	}
}

// WithEpsDecaySteps sets the exploration annealing horizon (must be >= 1).
func WithEpsDecaySteps(n int) Option {
	return func(o *Options) error {
		o.EpsDecaySteps = n
		return nil
	}
}

// WithTargetSync sets the target-network refresh interval. An explicit 0
// disables the target network entirely (the paper's plain Eq. (1)
// bootstrap); negative intervals are rejected.
func WithTargetSync(steps int) Option {
	return func(o *Options) error {
		o.TargetSync = steps
		return nil
	}
}

// WithDoubleDQN enables Double-DQN action selection. It requires a target
// network, so combining it with WithTargetSync(0) fails Validate instead of
// being silently "fixed".
func WithDoubleDQN(on bool) Option {
	return func(o *Options) error {
		o.DoubleDQN = on
		return nil
	}
}

// WithGradClip bounds the per-batch gradient L-infinity norm. An explicit 0
// disables clipping; negative limits are rejected.
func WithGradClip(limit float64) Option {
	return func(o *Options) error {
		o.GradClip = limit
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
		o.Actors = n
		return nil
	}
}

// WithSyncEvery sets the learner's policy-publish interval in training
// steps (must be >= 1). Smaller intervals keep actors fresher at the cost
// of more snapshot traffic — and, under E2E on the modeled hardware, more
// NVM writes per published snapshot.
func WithSyncEvery(steps int) Option {
	return func(o *Options) error {
		o.SyncEvery = steps
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
		return nil
	}
}

// WithSeed fixes the agent's private RNG. An explicit 0 is a valid seed
// (the struct-literal path historically replaced it with 1).
func WithSeed(seed int64) Option {
	return func(o *Options) error {
		o.Seed = seed
		return nil
	}
}

// Validate checks ranges and cross-field consistency on the resolved view of
// o (an unresolved literal's zero fields read as their defaults). It is the
// only range check of the option layer, and the explicit
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
