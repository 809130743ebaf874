package nn

import "dronerl/internal/tensor"

// TrainBatch is one minibatch of Q-learning transitions handed to a
// trainable backend: the stacked observations plus the per-sample scalars
// the TD(0) update needs. States and Nexts are (B, C, H, W) stacks in the
// ForwardBatch layout; rows of Nexts whose Done flag is set hold zeros and
// must not contribute a bootstrap term.
type TrainBatch struct {
	States, Nexts *tensor.Tensor
	// Feats and NextFeats optionally replace the frames with what the
	// backend's own BoundaryFeatures returned for them: B×F words row-major,
	// F the fan-in of the first trainable layer. When Feats is non-nil every
	// row has features, States and Nexts may be nil, and NextFeats rows whose
	// Done flag is set are ignored, as Nexts rows are. Features never outlive
	// the backend that made them: a rebuilt one must not be handed them.
	Feats, NextFeats []int16
	Actions          []int
	Rewards          []float64
	Done             []bool
	// Gamma is the discount factor and LR the learning rate of this update
	// (passed per batch so schedule changes need no backend rebuild).
	Gamma, LR float64
}

// TrainableBackend is the optional training hook of a Backend: backends
// that own their parameters — the quantized fixed-point engine, where the
// authoritative weights are integer words in the modeled STT-MRAM stack —
// implement the whole TD update themselves instead of delegating to the
// float network's backward pass. rl.Agent.TrainStep routes the sampled
// minibatch here when the options select a trainable backend, so every
// consumer of TrainStep (the online loop, the distributed learner, the
// curriculum runner) trains through the backend without knowing it exists.
type TrainableBackend interface {
	Backend
	// Train performs one minibatch TD(0) update on the backend's own
	// parameters and returns the batch-mean squared TD error. Backends that
	// mirror into a float network (so snapshots, publishes and evaluation
	// see the trained weights) do so before returning.
	Train(b TrainBatch) float64
	// SyncTarget copies the online parameters into the backend's bootstrap
	// target network, on the agent's TargetSync cadence.
	SyncTarget()
}

// BoundaryFeaturizer is the optional hook of a TrainableBackend that freezes
// a prefix: an actor computes each frame's boundary words once and both acts
// and trains on them, so the frozen prefix runs once per frame in the
// backend's own arithmetic and never on the float mirror.
type BoundaryFeaturizer interface {
	// BoundaryFeatures returns the activation of one CHW observation at the
	// training boundary, for TrainBatch.Feats. The result is privately owned
	// by the caller and nil when nothing is frozen.
	BoundaryFeatures(obs *tensor.Tensor) []int16
	// GreedyFrom runs the online trainable tail over one row BoundaryFeatures
	// returned and gives the greedy action: the argmax of the Q-values, ties
	// to the lowest index, so the frame's Backend.Infer row would pick the
	// same. It leaves feat as it found it.
	GreedyFrom(feat []int16) int
}
