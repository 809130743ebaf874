// Package rl implements the online Q-learning loop of the paper: an
// epsilon-greedy agent whose Q-function is a CNN (internal/nn), trained on
// (s_t, a_t, s_t+1, r_t) tuples with the Bellman target of Eq. (1),
// Q(s,a) = r + gamma * max_a' Q(s',a'). Gradients for a batch of N serially
// processed samples are accumulated and applied in one update, matching the
// accelerator's training iteration of Fig. 3(b).
package rl

import (
	"math/rand"

	"dronerl/internal/tensor"
)

// Transition is one experience tuple (s_t, a_t, r_t, s_t+1, done). Each
// state is held either as its frame (State, Next) or as the boundary
// features its learner reads (Feat/NextFeat, QFeat/QNextFeat), never both.
// The Actor that flew the step decides which, once for its whole flight:
// in-process by Agent.actor, in internal/dist by the first welcome. Replays
// and the wire keep what it emitted, and dist's learner refuses a row that
// lacks what it reads. Next and its features may be nil when Done: a
// finished episode has no bootstrap. TrainStep enters at the training
// boundary only when every sampled row carries its arm's features, and runs
// the whole network from the frames otherwise; a row with neither panics.
type Transition struct {
	State  *tensor.Tensor
	Action int
	Reward float64
	Next   *tensor.Tensor
	Done   bool

	// Feat and NextFeat are the frozen-prefix boundary activations of the
	// two states — the activation entering the first trainable layer under a
	// transfer topology — as the float learner reads them. Actors compute
	// them once per frame (they need them to act), and TrainStep then runs
	// only the trainable FC tail. Under E2E nothing is frozen and they stay
	// nil.
	Feat, NextFeat *tensor.Tensor

	// QFeat and QNextFeat are the same activations in an active train
	// backend's own arithmetic (nn.BoundaryFeaturizer: Q7.8 words from the
	// integer prefix), so its TD step enters at the boundary too. Only the
	// single-actor OnlineLoop fills them; a frame's slice is shared by the
	// transitions it ends and starts and is never written. They must not
	// outlive the backend that made them: the loop starts an empty replay when
	// the agent's backend changed since the last Run, and nothing rebuilds the
	// backend (SetConfig, AdoptPolicy) inside a Run.
	QFeat, QNextFeat []int16
}

// ReplayBuffer is a fixed-capacity ring buffer of transitions with uniform
// sampling.
type ReplayBuffer struct {
	buf  []Transition
	next int
	size int
}

// NewReplayBuffer creates a buffer holding up to capacity transitions.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		panic("rl: replay capacity must be positive")
	}
	return &ReplayBuffer{buf: make([]Transition, capacity)}
}

// Push inserts a transition, evicting the oldest once full.
func (r *ReplayBuffer) Push(t Transition) {
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.size < len(r.buf) {
		r.size++
	}
}

// Len returns the number of stored transitions.
func (r *ReplayBuffer) Len() int { return r.size }

// Sample draws n transitions uniformly with replacement. It panics if the
// buffer is empty.
func (r *ReplayBuffer) Sample(n int, rng *rand.Rand) []Transition {
	return r.SampleInto(make([]Transition, 0, n), n, rng)
}

// SampleInto draws n transitions uniformly with replacement, appending them
// to dst (normally dst[:0] of a reused slice) and returning the result. It
// consumes exactly the same rng stream as Sample, so the two are
// interchangeable in seeded experiments; unlike Sample it allocates nothing
// once dst has capacity n. It panics if the buffer is empty.
func (r *ReplayBuffer) SampleInto(dst []Transition, n int, rng *rand.Rand) []Transition {
	if r.size == 0 {
		panic("rl: sampling from empty replay buffer")
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.buf[rng.Intn(r.size)])
	}
	return dst
}
