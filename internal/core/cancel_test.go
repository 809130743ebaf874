package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// cancelScale is small enough that a full uninterrupted run takes seconds
// but has enough online jobs (80) that cancellation lands mid-phase.
func cancelScale() FlightScale {
	if testing.Short() {
		return FlightScale{MetaIters: 8, OnlineIters: 8, EvalSteps: 8, Seed: 13}
	}
	return FlightScale{MetaIters: 20, OnlineIters: 20, EvalSteps: 20, Seed: 13}
}

// TestRunCancelReturnsWithinRunBoundary cancels mid-experiment and asserts
// Run reports context.Canceled promptly: in-flight runs finish, nothing new
// starts, and the experiment's report stays unset.
func TestRunCancelReturnsWithinRunBoundary(t *testing.T) {
	exp, err := NewFlightExperiment(cancelScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	err = Run(ctx, exp, WithWorkers(4), WithProgress(func(ev Event) {
		events++
		if events == 3 { // cancel once the online phase is under way
			cancel()
		}
	}))
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
	if exp.Report() != nil {
		t.Error("cancelled experiment must not publish a report")
	}
}

// TestRunCancelLeaksNoGoroutines pins the drain guarantee at the engine
// level: after a cancelled Run returns, every worker goroutine has exited.
func TestRunCancelLeaksNoGoroutines(t *testing.T) {
	// Warm up: the first experiment initializes lazy runtime state
	// (GC background work, etc.) that would otherwise skew the count.
	warm, _ := NewFlightExperiment(cancelScale(), nil)
	if err := Run(context.Background(), warm, WithWorkers(2)); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		exp, err := NewFlightExperiment(cancelScale(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		runErr := Run(ctx, exp, WithWorkers(4), WithProgress(func(Event) {
			n++
			if n == 2 {
				cancel()
			}
		}))
		cancel()
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("trial %d: %v", trial, runErr)
		}
	}
	// Workers are joined before Run returns; allow a little slack for
	// unrelated runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after cancelled runs", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunCancelledThenRestartedReproducesUninterrupted is the restart
// determinism guarantee: discarding a cancelled experiment and running a
// fresh one yields the exact report an uninterrupted run produces.
func TestRunCancelledThenRestartedReproducesUninterrupted(t *testing.T) {
	scale := cancelScale()

	reference, err := NewFlightExperiment(scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), reference, WithWorkers(3)); err != nil {
		t.Fatal(err)
	}

	// Cancel one attempt partway through...
	ctx, cancel := context.WithCancel(context.Background())
	aborted, _ := NewFlightExperiment(scale, nil)
	n := 0
	_ = Run(ctx, aborted, WithWorkers(3), WithProgress(func(Event) {
		n++
		if n == 4 {
			cancel()
		}
	}))
	cancel()

	// ...and restart from scratch.
	restarted, _ := NewFlightExperiment(scale, nil)
	if err := Run(context.Background(), restarted, WithWorkers(3)); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(reference.Report(), restarted.Report()) {
		t.Error("restarted run diverges from the uninterrupted reference")
	}
}

// TestRunProgressEventsCoverEveryRun asserts the streaming contract: one
// event per completed run, phases labelled, totals right.
func TestRunProgressEventsCoverEveryRun(t *testing.T) {
	scale := cancelScale()
	exp, err := NewFlightExperiment(scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	byPhase := map[string]int{}
	if err := Run(context.Background(), exp, WithWorkers(2), WithProgress(func(ev Event) {
		byPhase[ev.Phase]++
		if ev.Experiment != "flight" {
			t.Errorf("event names experiment %q", ev.Experiment)
		}
		if ev.Env == "" && ev.Phase != "aggregate" {
			t.Errorf("run event without environment: %+v", ev)
		}
	})); err != nil {
		t.Fatal(err)
	}
	if byPhase["meta-train"] != 2 {
		t.Errorf("%d meta-train events, want 2", byPhase["meta-train"])
	}
	if want := 4 * 4 * seedRepeats; byPhase["online"] != want {
		t.Errorf("%d online events, want %d", byPhase["online"], want)
	}
}

// TestFlightExperimentUnknownScenario pins the planner's error path.
func TestFlightExperimentUnknownScenario(t *testing.T) {
	if _, err := NewFlightExperiment(cancelScale(), []string{"no-such-world"}); err == nil {
		t.Fatal("unknown scenario must fail at planning time")
	}
}

// TestFlightExperimentCustomScenarioList runs a two-scenario sweep (one of
// them an extension world) and checks the report covers exactly those.
func TestFlightExperimentCustomScenarioList(t *testing.T) {
	if testing.Short() {
		t.Skip("covered structurally by the default-scenario tests in short mode")
	}
	exp, err := NewFlightExperiment(cancelScale(), []string{"warehouse", "outdoor-town"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), exp, WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	rep := exp.Report()
	if len(rep.Envs) != 2 {
		t.Fatalf("%d env reports, want 2", len(rep.Envs))
	}
	if rep.Envs[0].Scenario != "warehouse" || rep.Envs[1].Scenario != "outdoor-town" {
		t.Errorf("scenario order lost: %q, %q", rep.Envs[0].Scenario, rep.Envs[1].Scenario)
	}
	if rep.Envs[0].Kind != "indoor" || rep.Envs[1].Kind != "outdoor" {
		t.Errorf("kinds wrong: %q, %q", rep.Envs[0].Kind, rep.Envs[1].Kind)
	}
	if rep.MetaTrackers["indoor"] == nil || rep.MetaTrackers["outdoor"] == nil {
		t.Error("both kinds must have meta trackers")
	}
	for _, er := range rep.Envs {
		if len(er.Runs) != 4 {
			t.Errorf("%s: %d runs, want 4", er.Env, len(er.Runs))
		}
	}
}
