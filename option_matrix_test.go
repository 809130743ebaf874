package dronerl_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dronerl"
)

// The (option × entry point) table. Every With… value implements the option
// interfaces of exactly the entry points that read it, so passing it to any
// other entry point does not compile; TestOptionTypes holds the types to
// this table. TestOptionEffectMatrix then runs every cell the table says is
// read, at a value that bites at the matrix's tiny scale: the report must
// change (compared with reflect.DeepEqual against the baseline's, echoed
// inputs cleared), or, for the one rule the types cannot hold, WithSyncEvery
// without WithActors(n > 1), the entry point must refuse it by name.

// entryPoints names each entry point's option interface.
var entryPoints = map[string]reflect.Type{
	"Flight":         reflect.TypeFor[dronerl.FlightOption](),
	"Missions":       reflect.TypeFor[dronerl.MissionOption](),
	"OnlineMissions": reflect.TypeFor[dronerl.OnlineMissionOption](),
	"Swarm":          reflect.TypeFor[dronerl.SwarmOption](),
	"Curriculum":     reflect.TypeFor[dronerl.CurriculumOption](),
	"Agent":          reflect.TypeFor[dronerl.AgentOption](),
}

const everyEntry = "Flight Missions OnlineMissions Swarm Curriculum Agent"

var optionTable = []struct {
	name  string
	opt   any
	reads string // the entry points that read the option
}{
	{"WithTopology", dronerl.WithTopology(dronerl.L2), "Swarm Curriculum Agent"},
	{"WithSeed", dronerl.WithSeed(6), everyEntry},
	{"WithMetaIters", dronerl.WithMetaIters(40), "Flight Swarm Curriculum"},
	{"WithOnlineIters", dronerl.WithOnlineIters(40), "Flight Swarm Curriculum"},
	{"WithEvalSteps", dronerl.WithEvalSteps(90), "Flight Swarm"},
	{"WithScenarios", dronerl.WithScenarios("outdoor-forest"), "Flight Swarm Curriculum"},
	{"WithGenerated", dronerl.WithGenerated(dronerl.GenSpec{Kind: "outdoor", Corridor: 4.5, Density: 1}),
		"Flight Swarm Curriculum"},
	{"WithSwarm", dronerl.WithSwarm(3), "Swarm"},
	{"WithCurriculum", dronerl.WithCurriculum(dronerl.Stage{
		Name: "one", Spec: dronerl.GenSpec{Kind: "indoor", Corridor: 1.3, Density: 2},
	}), "Curriculum"},
	{"WithGamma", dronerl.WithGamma(0.3), everyEntry},
	{"WithLR", dronerl.WithLR(0.1), everyEntry},
	{"WithBatchSize", dronerl.WithBatchSize(8), everyEntry},
	{"WithReplayCapacity", dronerl.WithReplayCapacity(4), everyEntry},
	{"WithEpsilon", dronerl.WithEpsilon(0.2, 0), everyEntry},
	{"WithEpsDecaySteps", dronerl.WithEpsDecaySteps(5), everyEntry},
	{"WithTargetSync", dronerl.WithTargetSync(2), everyEntry},
	{"WithDoubleDQN", dronerl.WithDoubleDQN(true), everyEntry},
	{"WithGradClip", dronerl.WithGradClip(1e-4), everyEntry},
	{"WithActors", dronerl.WithActors(2), "Flight Swarm Curriculum Agent"},
	{"WithSyncEvery", dronerl.WithSyncEvery(2), "Flight Swarm Curriculum Agent"},
	{"WithBackend", dronerl.WithBackend(dronerl.Quant), "Flight Missions Swarm Agent"},
	{"WithTrainBackend", dronerl.WithTrainBackend(dronerl.QuantTrain), "Flight OnlineMissions Swarm Curriculum Agent"},
}

// TestOptionTypes holds every With… value's option interfaces to the table,
// and the table to every With… the package declares, so a new option cannot
// skip it.
func TestOptionTypes(t *testing.T) {
	var listed []string
	for _, row := range optionTable {
		listed = append(listed, row.name)
		readers := strings.Fields(row.reads)
		for entry, iface := range entryPoints {
			if got, want := reflect.TypeOf(row.opt).Implements(iface), slices.Contains(readers, entry); got != want {
				t.Errorf("%s implements %v = %v, want %v", row.name, iface, got, want)
			}
		}
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "With") {
				continue
			}
			if id, ok := fn.Type.Results.List[0].Type.(*ast.Ident); ok && id.Name == "RunOption" {
				continue
			}
			if !slices.Contains(listed, fn.Name.Name) {
				t.Errorf("%s is missing from the option table", fn.Name.Name)
			}
		}
	}
}

// matrixEntry is one entry point: run builds it from its tiny-scale
// baseline options followed by opts, executes it and returns its report
// with echoed inputs cleared, or the error that refused the options.
type matrixEntry struct {
	name  string // the subtest name
	entry string // the entry point, a key of entryPoints
	run   func(opts []any) (any, error)
}

// as converts the matrix's options to one entry point's option type; the
// table has checked that each cell run there implements it.
func as[O any](base []O, opts []any) []O {
	for _, o := range opts {
		base = append(base, o.(O))
	}
	return base
}

var matrixEntries = []matrixEntry{
	{
		name: "Flight", entry: "Flight",
		run: func(opts []any) (any, error) {
			// A learning rate high enough that a few TD steps move a greedy
			// action: at the online recipe's 0.001 a 60-step flight trains
			// too little for WithDoubleDQN or WithTrainBackend to change one.
			e, err := dronerl.Flight(as([]dronerl.FlightOption{
				dronerl.WithSeed(5), dronerl.WithLR(0.02),
				dronerl.WithMetaIters(60), dronerl.WithOnlineIters(60), dronerl.WithEvalSteps(60),
				dronerl.WithScenarios("indoor-apartment"),
			}, opts)...)
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
	},
	{
		name: "Missions/online", entry: "OnlineMissions",
		run: func(opts []any) (any, error) {
			e, err := dronerl.OnlineMissions(30, as([]dronerl.OnlineMissionOption{dronerl.WithSeed(5)}, opts)...)
			return missionResults(e, err)
		},
	},
	{
		// An inference-only mission's report shows its policy only through
		// the crash count, so it flies a budget long enough for the count
		// to move.
		name: "Missions/inference", entry: "Missions",
		run: func(opts []any) (any, error) {
			e, err := dronerl.Missions(100, as([]dronerl.MissionOption{dronerl.WithSeed(5)}, opts)...)
			return missionResults(e, err)
		},
	},
	{
		// Swarm and Curriculum fly the indoor apartment unless a cell
		// selects another world, and refuse a list of two, so a cell's
		// WithScenarios or WithGenerated is the one scenario.
		name: "Swarm", entry: "Swarm",
		run: func(opts []any) (any, error) {
			e, err := dronerl.Swarm(as([]dronerl.SwarmOption{
				dronerl.WithSeed(5), dronerl.WithSwarm(2),
				dronerl.WithMetaIters(60), dronerl.WithOnlineIters(60), dronerl.WithEvalSteps(60),
			}, opts)...)
			if err != nil {
				return nil, err
			}
			if err := dronerl.Run(context.Background(), e); err != nil {
				return nil, err
			}
			rep := *e.Report()
			rep.Env, rep.Config = "", dronerl.L3 // echo WithScenarios and WithTopology
			return rep, nil
		},
	},
	{
		name: "Curriculum", entry: "Curriculum",
		run: func(opts []any) (any, error) {
			e, err := dronerl.Curriculum(as([]dronerl.CurriculumOption{
				dronerl.WithSeed(5), dronerl.WithMetaIters(60), dronerl.WithOnlineIters(60),
			}, opts)...)
			if err != nil {
				return nil, err
			}
			if err := dronerl.Run(context.Background(), e); err != nil {
				return nil, err
			}
			return *e.Report(), nil
		},
	},
}

func missionResults(e *dronerl.MissionExperiment, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	if err := dronerl.Run(context.Background(), e); err != nil {
		return nil, err
	}
	return e.Results(), nil
}

// TestOptionEffectMatrix runs every cell the table says is read against its
// entry point's baseline.
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
			for _, row := range optionTable {
				if !slices.Contains(strings.Fields(row.reads), entry.entry) {
					continue // a compile error, held by TestOptionTypes
				}
				got, err := entry.run([]any{row.opt})
				switch {
				case row.name == "WithSyncEvery":
					if err == nil || !strings.Contains(err.Error(), row.name) {
						t.Errorf("%s without WithActors: want an error naming the option, got %v", row.name, err)
					}
				case err != nil:
					t.Errorf("%s: %v", row.name, err)
				case reflect.DeepEqual(got, base):
					t.Errorf("%s: silently dropped: the report equals the baseline's", row.name)
				}
			}
		})
	}
}
