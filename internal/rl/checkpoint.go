package rl

import (
	"fmt"
	"slices"
	"strings"

	"dronerl/internal/nn"
)

// A learner's durable state is one nn weight image: the online network's
// sections, the target's under targetPrefix, then the counts (nn.AddCounts)
// stateSection: env steps, train steps, shard cursor, a push ordinal per shard.
const (
	targetPrefix = "target/"
	stateSection = "state"
)

// Checkpoint captures the agent's learner state as one weight image: both
// networks, the clock and, when shards is non-nil, its interleave cursors
// (not its contents). The caller keeps the agent quiescent.
func (a *Agent) Checkpoint(shards *ReplayShards) *nn.Snapshot {
	img := nn.TakeSnapshot(a.Net, a.spec.Name)
	if a.Target != nil {
		t := nn.TakeSnapshot(a.Target, a.spec.Name)
		for i, name := range t.Names {
			t.Names[i] = targetPrefix + name
		}
		img.Names, img.Shapes, img.Data = slices.Concat(img.Names, t.Names), slices.Concat(img.Shapes, t.Shapes), slices.Concat(img.Data, t.Data)
	}
	state := []uint64{uint64(a.clock.EnvSteps()), uint64(a.clock.TrainSteps()), 0}
	if shards != nil {
		state[2] = uint64(shards.cursor)
		for i := range shards.shards {
			shards.mus[i].Lock()
			state = append(state, uint64(shards.pushes[i]))
			shards.mus[i].Unlock()
		}
	}
	img.AddCounts(stateSection, state)
	return img
}

// CheckpointClock returns the env and train steps of the clock a Checkpoint
// image holds, or an error when its last section is no learner state.
func CheckpointClock(img *nn.Snapshot) (envSteps, trainSteps int64, err error) {
	state, err := img.Counts(stateSection)
	if err != nil || img.Names[len(img.Names)-1] != stateSection || len(state) < 3 ||
		slices.ContainsFunc(state, func(c uint64) bool { return int64(c) < 0 }) {
		return 0, 0, fmt.Errorf("rl: checkpoint state %v is no clock and cursor in its last section (%v)", state, err)
	}
	return int64(state[0]), int64(state[1]), nil
}

// Resume installs a Checkpoint image into a freshly deployed agent of its
// architecture and target presence and, when shards is non-nil, into replay
// shards of its shard count. Everything — sections, shapes, finiteness, shard
// count — is checked before anything is written, so a refused image changes
// nothing. Active backends compiled the deploy-time weights, so Resume
// rebuilds them over the restored ones, as AdoptPolicy does: the float Target
// is restored exactly, a train backend's own target (quant-train's int16
// copy) starts from the restored online words and re-syncs at the next
// TargetSync.
func (a *Agent) Resume(img *nn.Snapshot, shards *ReplayShards) error {
	env, train, err := CheckpointClock(img)
	if err != nil {
		return err
	}
	state, _ := img.Counts(stateSection)
	cursor, pushes := state[2], state[3:]
	if img.Arch != a.spec.Name {
		return fmt.Errorf("rl: checkpoint is a %q run, resuming %q", img.Arch, a.spec.Name)
	}
	if shards != nil && (len(pushes) != len(shards.shards) || cursor > uint64(len(pushes))) {
		return fmt.Errorf("rl: checkpoint replay cursor %d over %d shards, store has %d", cursor, len(pushes), len(shards.shards))
	}
	// One restore over both networks' parameters checks all of them before
	// it writes any; the target's sections lose their prefix for it.
	last, into := len(img.Names)-1, a.Net
	s := &nn.Snapshot{Version: img.Version, Arch: img.Arch, Names: slices.Clone(img.Names[:last]), Shapes: img.Shapes[:last], Data: img.Data[:last]}
	if a.Target != nil {
		into = nn.NewNetwork(slices.Concat(a.Net.Layers, a.Target.Layers)...)
		for i := min(len(a.Net.Params()), last); i < last; i++ {
			if s.Names[i], _ = strings.CutPrefix(s.Names[i], targetPrefix); s.Names[i] == img.Names[i] {
				return fmt.Errorf("rl: checkpoint section %d is %q, want a %s section", i, img.Names[i], targetPrefix)
			}
		}
	}
	if err := s.Restore(into); err != nil {
		return fmt.Errorf("rl: restoring checkpoint weights: %w", err)
	}
	if shards != nil {
		for i := range shards.shards {
			shards.mus[i].Lock()
			shards.pushes[i] = int64(pushes[i])
			shards.mus[i].Unlock()
		}
		shards.cursor = int(cursor)
	}
	a.clock.env.Store(env)
	a.clock.train.Store(train)
	a.clock.Wake()
	return a.rebuildBackends()
}
