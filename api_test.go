package dronerl_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"dronerl"
	"dronerl/internal/env"
)

// quickScaleFingerprint is the SHA-256 of the complete QuickScale flight
// report (every reward/return series value, SFD, crash count and meta
// cumulative reward, as 64-bit floats) produced by the pre-redesign
// RunFlightExperiment implementation, recorded before the engine rewrite.
// The new Run(ctx, Spec.Flight()) path must reproduce it bit for bit.
const quickScaleFingerprint = "4070933c6429043d351959ef1e4f95f4eab2f4e3598b107ec50cbf2b7055dbd6"

func fingerprintReport(rep *dronerl.FlightReport) string {
	h := sha256.New()
	f := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, e := range rep.Envs {
		h.Write([]byte(e.Env + "|" + e.Kind))
		f(e.WorstLiDegradationPct)
		for _, r := range e.Runs {
			h.Write([]byte{byte(r.Config)})
			f(r.SFD)
			f(r.NormalizedSFD)
			f(float64(r.Crashes))
			for _, v := range r.RewardSeries {
				f(v)
			}
			for _, v := range r.ReturnSeries {
				f(v)
			}
		}
	}
	for _, kind := range []string{"indoor", "outdoor"} {
		f(rep.MetaTrackers[kind].CumulativeReward())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestNewAPIReproducesQuickScaleBitForBit is the redesign's acceptance
// test: the composable Spec/Run path must regenerate the historical
// QuickScale flight-experiment output exactly — same seeds, same schedule
// derivations, same floats — under a parallel schedule.
func TestNewAPIReproducesQuickScaleBitForBit(t *testing.T) {
	if testing.Short() {
		t.Skip("full QuickScale run takes ~20s; the engine-scale equivalence tests cover short mode")
	}
	spec, err := dronerl.New(
		dronerl.WithSeed(1),
		dronerl.WithMetaIters(500),
		dronerl.WithOnlineIters(400),
		dronerl.WithEvalSteps(400),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Scale(); got != dronerl.QuickScale() {
		t.Fatalf("spec scale %+v is not QuickScale %+v", got, dronerl.QuickScale())
	}
	exp, err := spec.Flight()
	if err != nil {
		t.Fatal(err)
	}
	if err := dronerl.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	if got := fingerprintReport(exp.Report()); got != quickScaleFingerprint {
		t.Errorf("QuickScale output diverged from the pre-redesign implementation:\n got %s\nwant %s",
			got, quickScaleFingerprint)
	}
}

func TestNewRejectsInvalidSpecs(t *testing.T) {
	cases := []struct {
		name string
		opts []dronerl.Option
	}{
		{"unknown scenario", []dronerl.Option{dronerl.WithScenarios("atlantis")}},
		{"empty scenario list", []dronerl.Option{dronerl.WithScenarios()}},
		{"zero meta iters", []dronerl.Option{dronerl.WithMetaIters(0)}},
		{"zero online iters", []dronerl.Option{dronerl.WithOnlineIters(0)}},
		{"zero eval steps", []dronerl.Option{dronerl.WithEvalSteps(0)}},
		{"bad gamma", []dronerl.Option{dronerl.WithGamma(1.5)}},
		{"bad lr", []dronerl.Option{dronerl.WithLR(-1)}},
		{"double dqn without target", []dronerl.Option{
			dronerl.WithDoubleDQN(true), dronerl.WithTargetSync(0),
		}},
		{"unknown topology", []dronerl.Option{dronerl.WithTopology(dronerl.Config(42))}},
		{"zero scale via WithScale", []dronerl.Option{dronerl.WithScale(dronerl.FlightScale{})}},
	}
	for _, c := range cases {
		if _, err := dronerl.New(c.opts...); err == nil {
			t.Errorf("%s: New accepted an invalid spec", c.name)
		}
	}
}

func TestSpecDefaultsAndAccessors(t *testing.T) {
	spec, err := dronerl.New()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Topology() != dronerl.L3 {
		t.Errorf("default topology %v, want L3", spec.Topology())
	}
	if spec.Scale() != dronerl.QuickScale() {
		t.Errorf("default scale %+v, want QuickScale", spec.Scale())
	}
	names := spec.ScenarioNames()
	want := []string{"indoor-apartment", "indoor-house", "outdoor-forest", "outdoor-town"}
	if len(names) != len(want) {
		t.Fatalf("default scenarios %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("default scenario %d = %q, want %q", i, names[i], want[i])
		}
	}
	agent, err := spec.Agent()
	if err != nil {
		t.Fatal(err)
	}
	if agent.Net.TrainableWeightCount() >= agent.Net.WeightCount() {
		t.Error("L3 agent must freeze most of the network")
	}
}

func TestScenarioCatalogFacade(t *testing.T) {
	catalog := dronerl.Scenarios()
	if len(catalog) < 10 {
		t.Fatalf("catalog has %d entries, want >= 10", len(catalog))
	}
	if err := dronerl.RegisterScenario("indoor-apartment", nil); err == nil {
		t.Error("facade must surface registration errors")
	}
	seen := map[string]bool{}
	for _, s := range catalog {
		seen[s.Name] = true
	}
	for _, name := range []string{"warehouse", "outdoor-meta-rich", "indoor-apartment-ideal-depth"} {
		if !seen[name] {
			t.Errorf("catalog missing %q", name)
		}
	}
	// Facade registrations probe the builder so the catalog lists a kind.
	if err := dronerl.RegisterScenario("facade-kind-probe", func(seed int64) *env.World {
		return env.OutdoorForest(seed)
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range dronerl.Scenarios() {
		if s.Name == "facade-kind-probe" && s.Kind != "outdoor" {
			t.Errorf("probed kind %q, want outdoor", s.Kind)
		}
	}
}

// TestRunStreamsProgressThroughFacade exercises the root-level progress
// option end to end on a tiny experiment.
func TestRunStreamsProgressThroughFacade(t *testing.T) {
	spec, err := dronerl.New(
		dronerl.WithSeed(23),
		dronerl.WithMetaIters(6), dronerl.WithOnlineIters(6), dronerl.WithEvalSteps(6),
		dronerl.WithScenarios("indoor-apartment"),
	)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := spec.Flight()
	if err != nil {
		t.Fatal(err)
	}
	var events int
	if err := dronerl.Run(context.Background(), exp,
		dronerl.WithWorkers(2),
		dronerl.WithProgress(func(ev dronerl.Event) { events++ })); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("no progress events streamed")
	}
	if exp.Report() == nil {
		t.Error("completed experiment must publish its report")
	}
}

// TestUnknownScenarioErrorListsTheCatalog pins the fast-fail contract: a
// typo'd scenario name is rejected at New time with an error that lists
// every registered name, builtin and generated families alike.
func TestUnknownScenarioErrorListsTheCatalog(t *testing.T) {
	_, err := dronerl.New(dronerl.WithScenarios("indoor-aprtment"))
	if err == nil {
		t.Fatal("misspelled scenario accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown scenario "indoor-aprtment"`) {
		t.Errorf("error does not name the bad input: %v", err)
	}
	if !strings.Contains(msg, "registered scenarios are") {
		t.Errorf("error does not introduce the catalog listing: %v", err)
	}
	for _, name := range []string{"indoor-apartment", "warehouse", "gen-indoor-sparse"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error listing misses registered scenario %q: %v", name, err)
		}
	}
}

func TestSpecCurriculumAndSwarm(t *testing.T) {
	spec, err := dronerl.New(
		dronerl.WithSeed(5),
		dronerl.WithMetaIters(40), dronerl.WithOnlineIters(40), dronerl.WithEvalSteps(40),
		dronerl.WithScenarios("gen-indoor-sparse"),
		dronerl.WithSwarm(3),
		dronerl.WithCurriculum(
			dronerl.Stage{Name: "a", Spec: dronerl.GenSpec{Kind: "indoor", Corridor: 1.3, Density: 2}},
			dronerl.Stage{Name: "b", Spec: dronerl.GenSpec{Kind: "indoor", Corridor: 0.9, Density: 4}},
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := spec.Curriculum()
	if err != nil {
		t.Fatal(err)
	}
	if err := dronerl.Run(context.Background(), cur); err != nil {
		t.Fatal(err)
	}
	rep := cur.Report()
	if rep == nil || len(rep.Trace) == 0 {
		t.Fatal("curriculum run produced no promotion trace")
	}
	for _, rec := range rep.Trace {
		if rec.Stage != "a" && rec.Stage != "b" {
			t.Errorf("trace names unknown stage %q", rec.Stage)
		}
	}

	swarm, err := spec.Swarm()
	if err != nil {
		t.Fatal(err)
	}
	if err := dronerl.Run(context.Background(), swarm); err != nil {
		t.Fatal(err)
	}
	if got := swarm.Report(); got == nil || len(got.Drones) != 3 {
		t.Fatalf("swarm report %+v, want 3 drones", got)
	}
}

// TestSpecSwarmFliesTheSelectedBackend: WithBackend reaches the swarm's
// mission phase like every other deployment phase, so the fleet flies the
// integer engine and the report names it and carries its tally.
func TestSpecSwarmFliesTheSelectedBackend(t *testing.T) {
	spec, err := dronerl.New(
		dronerl.WithSeed(5), dronerl.WithBackend(dronerl.Quant), dronerl.WithSwarm(2),
		dronerl.WithMetaIters(30), dronerl.WithOnlineIters(30), dronerl.WithEvalSteps(20),
		dronerl.WithScenarios("gen-indoor-sparse"),
	)
	if err != nil {
		t.Fatal(err)
	}
	swarm, err := spec.Swarm()
	if err != nil {
		t.Fatal(err)
	}
	if err := dronerl.Run(context.Background(), swarm); err != nil {
		t.Fatal(err)
	}
	rep := swarm.Report()
	if rep.Backend != dronerl.Quant {
		t.Fatalf("swarm flew backend %q, want %q", rep.Backend, dronerl.Quant)
	}
	if rep.EvalCost.Inferences != 2*20 {
		t.Errorf("backend charged %d inferences, want %d", rep.EvalCost.Inferences, 2*20)
	}
}

// TestSpecFlightCarriesTheTrainBackend: under WithTrainBackend alone every
// flight cell names the backend it trained on and what that charged, and
// its greedy evaluation flies the same words and names them too.
func TestSpecFlightCarriesTheTrainBackend(t *testing.T) {
	spec, err := dronerl.New(
		dronerl.WithSeed(4), dronerl.WithTrainBackend(dronerl.QuantTrain),
		dronerl.WithMetaIters(20), dronerl.WithOnlineIters(20), dronerl.WithEvalSteps(9),
		dronerl.WithScenarios("warehouse"),
	)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := spec.Flight()
	if err != nil {
		t.Fatal(err)
	}
	if err := dronerl.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	for _, run := range exp.Report().Envs[0].Runs {
		if run.TrainBackend != dronerl.QuantTrain || run.TrainCost.EnergyMJ <= 0 {
			t.Errorf("%v trained on %q for %+v, want a quant-train cost", run.Config, run.TrainBackend, run.TrainCost)
		}
		// Five seed repeats, each three evaluation flights of 9/3 steps.
		if run.Backend != dronerl.QuantTrain || run.EvalCost.Inferences != 5*9 {
			t.Errorf("%v evaluated on %q for %+v, want 45 quant-train inferences", run.Config, run.Backend, run.EvalCost)
		}
	}
}

// TestSpecSwarmFliesTheTrainedWords: under WithTrainBackend alone the swarm
// flies the backend the agent's Greedy flies — the trained int16 words, not
// the float mirror — and charges every drone's every step to it.
func TestSpecSwarmFliesTheTrainedWords(t *testing.T) {
	spec, err := dronerl.New(
		dronerl.WithSeed(5), dronerl.WithTrainBackend(dronerl.QuantTrain), dronerl.WithSwarm(3),
		dronerl.WithMetaIters(30), dronerl.WithOnlineIters(30), dronerl.WithEvalSteps(20),
		dronerl.WithScenarios("gen-indoor-sparse"),
	)
	if err != nil {
		t.Fatal(err)
	}
	swarm, err := spec.Swarm()
	if err != nil {
		t.Fatal(err)
	}
	if err := dronerl.Run(context.Background(), swarm); err != nil {
		t.Fatal(err)
	}
	rep := swarm.Report()
	if rep.Backend != dronerl.QuantTrain || rep.TrainBackend != dronerl.QuantTrain {
		t.Fatalf("swarm flew %q and trained on %q, want %q for both", rep.Backend, rep.TrainBackend, dronerl.QuantTrain)
	}
	if rep.EvalCost.Inferences != 3*20 || rep.EvalCost.EnergyMJ <= 0 {
		t.Errorf("swarm charged %+v, want %d inferences", rep.EvalCost, 3*20)
	}
}

func TestWithGeneratedRegistersAndSelects(t *testing.T) {
	g := dronerl.GenSpec{Kind: "outdoor", Corridor: 4.5, Density: 0.8, Turbulence: 0.2}
	spec, err := dronerl.New(dronerl.WithGenerated(g))
	if err != nil {
		t.Fatal(err)
	}
	names := spec.ScenarioNames()
	if len(names) != 1 || names[0] != g.FamilyName() {
		t.Fatalf("generated family not selected: %v", names)
	}
	found := false
	for _, s := range dronerl.Scenarios() {
		if s.Name == g.FamilyName() {
			found = true
			if s.Kind != "outdoor" {
				t.Errorf("family registered with kind %q", s.Kind)
			}
		}
	}
	if !found {
		t.Fatalf("WithGenerated did not register %q in the catalog", g.FamilyName())
	}
	// Same spec again: idempotent, not a duplicate error.
	if _, err := dronerl.New(dronerl.WithGenerated(g)); err != nil {
		t.Fatalf("re-registering the same generated family failed: %v", err)
	}
	if _, err := dronerl.New(dronerl.WithGenerated(dronerl.GenSpec{Kind: "nope"})); err == nil {
		t.Fatal("invalid generated spec accepted")
	}
	if _, err := dronerl.New(dronerl.WithSwarm(0)); err == nil {
		t.Fatal("zero swarm size accepted")
	}
	if _, err := dronerl.New(dronerl.WithCurriculum()); err == nil {
		t.Fatal("empty curriculum accepted")
	}
}
