package core

import (
	"strings"
	"testing"

	"dronerl/internal/rl"
)

// TestCheckOverrides: an option an experiment does not read is refused by
// name, WithSyncEvery only counts as read beside a fleet, and an option
// overridden back to its default (WithActors(1)) is not refused.
func TestCheckOverrides(t *testing.T) {
	mission := Unread{Actors: "one drone", EvalBackend: "acts on what it trains"}
	for _, tc := range []struct {
		opts   []rl.Option
		unread Unread
		want   string // "" = accepted
	}{
		{nil, mission, ""},
		{[]rl.Option{rl.WithGamma(0.5), rl.WithTrainBackend("quant-train")}, mission, ""},
		{[]rl.Option{rl.WithActors(4)}, mission, "WithActors(4) is not read: one drone"},
		{[]rl.Option{rl.WithActors(4), rl.WithActors(1)}, mission, ""},
		{[]rl.Option{rl.WithEvalBackend("quant")}, mission, `WithBackend("quant") is not read`},
		{[]rl.Option{rl.WithTrainBackend("quant-train")}, Unread{TrainBackend: "never trains"}, "WithTrainBackend"},
		{[]rl.Option{rl.WithSyncEvery(3)}, Unread{}, "WithSyncEvery(3)"},
		{[]rl.Option{rl.WithActors(2), rl.WithSyncEvery(3)}, Unread{}, ""},
		{[]rl.Option{rl.WithActors(2), rl.WithSyncEvery(3)}, mission, "WithActors(2)"},
		// A failing option is left for the run's own validation.
		{[]rl.Option{rl.WithEvalBackend("")}, mission, ""},
	} {
		err := CheckOverrides("test", tc.opts, tc.unread)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%+v: refused: %v", tc.unread, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%+v: got %v, want an error containing %q", tc.unread, err, tc.want)
		}
	}
}
