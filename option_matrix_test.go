package dronerl_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dronerl"
)

// The option-effect matrix: every entry point against WithSeed and every
// agent option. A cell sets a non-default value that bites at the entry
// point's tiny scale, and must either change the report (compared with
// reflect.DeepEqual against the baseline's, echoed inputs cleared) or be
// refused with an error naming the option. A cell that does neither is an
// option the entry point silently drops.

// matrixCell is one option under test, at a value that bites at the
// matrix's scale.
type matrixCell struct {
	name string // the option's name, which a refusal must contain
	opts []dronerl.Option
}

var matrixCells = []matrixCell{
	{"WithSeed", []dronerl.Option{dronerl.WithSeed(6)}},
	{"WithGamma", []dronerl.Option{dronerl.WithGamma(0.3)}},
	{"WithLR", []dronerl.Option{dronerl.WithLR(0.1)}},
	{"WithBatchSize", []dronerl.Option{dronerl.WithBatchSize(8)}},
	{"WithReplayCapacity", []dronerl.Option{dronerl.WithReplayCapacity(4)}},
	{"WithEpsilon", []dronerl.Option{dronerl.WithEpsilon(0.2, 0)}},
	{"WithEpsDecaySteps", []dronerl.Option{dronerl.WithEpsDecaySteps(5)}},
	{"WithTargetSync", []dronerl.Option{dronerl.WithTargetSync(2)}},
	{"WithDoubleDQN", []dronerl.Option{dronerl.WithDoubleDQN(true)}},
	{"WithGradClip", []dronerl.Option{dronerl.WithGradClip(1e-4)}},
	{"WithActors", []dronerl.Option{dronerl.WithActors(2)}},
	{"WithSyncEvery", []dronerl.Option{dronerl.WithSyncEvery(2)}},
	{"WithBackend", []dronerl.Option{dronerl.WithBackend(dronerl.Quant)}},
	{"WithTrainBackend", []dronerl.Option{dronerl.WithTrainBackend(dronerl.QuantTrain)}},
}

// matrixEntry is one entry point: run builds it from the options, executes
// it and returns its report with echoed inputs cleared, or the error that
// refused the options. refuses names the cells it must refuse.
type matrixEntry struct {
	name    string
	run     func(opts []dronerl.Option) (any, error)
	refuses map[string]bool
}

// matrixSpec is the tiny one-scenario Spec every entry point starts from.
func matrixSpec(opts []dronerl.Option) (*dronerl.Spec, error) {
	base := []dronerl.Option{
		dronerl.WithSeed(5),
		dronerl.WithMetaIters(60), dronerl.WithOnlineIters(60), dronerl.WithEvalSteps(60),
		dronerl.WithScenarios("indoor-apartment"),
		dronerl.WithSwarm(2),
	}
	return dronerl.New(append(base, opts...)...)
}

var matrixEntries = []matrixEntry{
	{
		name: "Flight",
		run: func(opts []dronerl.Option) (any, error) {
			// A learning rate high enough that a few TD steps move a greedy
			// action: at the online recipe's 0.001 a 60-step flight trains
			// too little for WithDoubleDQN or WithTrainBackend to change one.
			spec, err := matrixSpec(append([]dronerl.Option{dronerl.WithLR(0.02)}, opts...))
			if err != nil {
				return nil, err
			}
			e, err := spec.Flight()
			if err != nil {
				return nil, err
			}
			if err := dronerl.Run(context.Background(), e); err != nil {
				return nil, err
			}
			rep := *e.Report()
			rep.Scale = dronerl.FlightScale{} // echoes WithSeed
			return rep, nil
		},
		refuses: map[string]bool{"WithSyncEvery": true},
	},
	{
		name:    "Missions/online",
		run:     missionsRun(true),
		refuses: map[string]bool{"WithActors": true, "WithSyncEvery": true, "WithBackend": true},
	},
	{
		name:    "Missions/inference",
		run:     missionsRun(false),
		refuses: map[string]bool{"WithActors": true, "WithSyncEvery": true, "WithTrainBackend": true},
	},
	{
		name: "Swarm",
		run: func(opts []dronerl.Option) (any, error) {
			spec, err := matrixSpec(opts)
			if err != nil {
				return nil, err
			}
			e, err := spec.Swarm()
			if err != nil {
				return nil, err
			}
			if err := dronerl.Run(context.Background(), e); err != nil {
				return nil, err
			}
			return *e.Report(), nil
		},
		refuses: map[string]bool{"WithSyncEvery": true},
	},
	{
		name: "Curriculum",
		run: func(opts []dronerl.Option) (any, error) {
			spec, err := matrixSpec(opts)
			if err != nil {
				return nil, err
			}
			e, err := spec.Curriculum()
			if err != nil {
				return nil, err
			}
			if err := dronerl.Run(context.Background(), e); err != nil {
				return nil, err
			}
			return *e.Report(), nil
		},
		refuses: map[string]bool{"WithSyncEvery": true, "WithBackend": true},
	},
}

// missionsRun is the mission entry point, online or inference-only. An
// inference-only mission's report shows its policy only through the crash
// count, so it flies a budget long enough for the count to move.
func missionsRun(online bool) func([]dronerl.Option) (any, error) {
	budgetJ := 30.0
	if !online {
		budgetJ = 100
	}
	return func(opts []dronerl.Option) (any, error) {
		spec, err := matrixSpec(opts)
		if err != nil {
			return nil, err
		}
		e, err := spec.Missions(budgetJ, online)
		if err != nil {
			return nil, err
		}
		if err := dronerl.Run(context.Background(), e); err != nil {
			return nil, err
		}
		return e.Results(), nil
	}
}

// TestOptionEffectMatrix runs every cell of the matrix against its entry
// point's baseline.
func TestOptionEffectMatrix(t *testing.T) {
	if testing.Short() {
		// Twenty-four missions each meta-train 800 iterations; tier-1 and
		// CI's race-async job run the matrix in full.
		t.Skip("the matrix runs in full outside short mode")
	}
	for _, entry := range matrixEntries {
		entry := entry
		t.Run(entry.name, func(t *testing.T) {
			t.Parallel()
			base, err := entry.run(nil)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			for _, cell := range matrixCells {
				got, err := entry.run(cell.opts)
				switch {
				case entry.refuses[cell.name]:
					if err == nil || !strings.Contains(err.Error(), cell.name) {
						t.Errorf("%s: want an error naming the option, got %v", cell.name, err)
					}
				case err != nil:
					t.Errorf("%s: %v", cell.name, err)
				case reflect.DeepEqual(got, base):
					t.Errorf("%s: silently dropped: the report equals the baseline's", cell.name)
				}
			}
		})
	}
}
