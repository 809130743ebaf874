package core

import (
	"fmt"

	"dronerl/internal/rl"
)

// Unread says which agent options an experiment does not read, and why.
// An empty reason means the experiment reads the option. Each driver's
// SetAgentOverrides states its own table and refuses through CheckOverrides,
// so an option that would change nothing fails loudly instead of quietly
// turning an experiment arm back into its baseline.
type Unread struct {
	// Actors is why WithActors(n > 1) is refused.
	Actors string
	// EvalBackend is why WithBackend (rl.WithEvalBackend) is refused.
	EvalBackend string
	// TrainBackend is why WithTrainBackend is refused.
	TrainBackend string
}

// CheckOverrides returns an error naming the first option in opts that the
// experiment name does not read, with the reason. WithSyncEvery is refused
// everywhere unless WithActors(n > 1) is set too: only an actor fleet
// publishes policies. Options are applied to a bare rl.Options — no
// defaults, no validation — so a non-zero field is one an option set; an
// option that fails to apply is left for the run's own rl.Options.With to
// report.
func CheckOverrides(name string, opts []rl.Option, unread Unread) error {
	var set rl.Options
	for _, o := range opts {
		if o != nil {
			_ = o(&set)
		}
	}
	switch {
	case set.Actors > 1 && unread.Actors != "":
		return fmt.Errorf("%s: WithActors(%d) is not read: %s", name, set.Actors, unread.Actors)
	case set.EvalBackend != "" && unread.EvalBackend != "":
		return fmt.Errorf("%s: WithBackend(%q) is not read: %s", name, set.EvalBackend, unread.EvalBackend)
	case set.TrainBackend != "" && unread.TrainBackend != "":
		return fmt.Errorf("%s: WithTrainBackend(%q) is not read: %s", name, set.TrainBackend, unread.TrainBackend)
	case set.SyncEvery != 0 && set.Actors <= 1:
		return fmt.Errorf("%s: WithSyncEvery(%d) is not read without WithActors(n > 1): "+
			"only an actor fleet publishes policies", name, set.SyncEvery)
	}
	return nil
}
