package core

import (
	"context"
	"strings"
	"testing"

	"dronerl/internal/nn"
)

// tinyScale keeps unit tests fast while exercising the full pipeline. In
// short mode (the CI race job) it shrinks further: the structural assertions
// below do not depend on learning quality, only on the report's shape.
func tinyScale() FlightScale {
	if testing.Short() {
		return FlightScale{MetaIters: 12, OnlineIters: 12, EvalSteps: 12, Seed: 3}
	}
	return FlightScale{MetaIters: 120, OnlineIters: 120, EvalSteps: 120, Seed: 3}
}

// runExp executes e on workers workers and fails the test on error.
func runExp(t *testing.T, e Experiment, workers int) {
	t.Helper()
	if err := Run(context.Background(), e, WithWorkers(workers)); err != nil {
		t.Fatal(err)
	}
}

// runFlight runs the flight experiment at scale on workers workers.
func runFlight(t *testing.T, scale FlightScale, workers int) *FlightReport {
	t.Helper()
	e, err := NewFlightExperiment(scale, nil)
	if err != nil {
		t.Fatal(err)
	}
	runExp(t, e, workers)
	return e.Report()
}

func TestRunFlightExperimentStructure(t *testing.T) {
	rep := runFlight(t, tinyScale(), 0)
	if len(rep.Envs) != 4 {
		t.Fatalf("%d environments, want 4", len(rep.Envs))
	}
	wantEnvs := []string{"indoor apartment", "indoor house", "outdoor forest", "outdoor town"}
	for i, er := range rep.Envs {
		if er.Env != wantEnvs[i] {
			t.Errorf("env %d = %s, want %s", i, er.Env, wantEnvs[i])
		}
		if len(er.Runs) != 4 {
			t.Fatalf("%s: %d runs, want 4 (L2,L3,L4,E2E)", er.Env, len(er.Runs))
		}
		for _, run := range er.Runs {
			if len(run.RewardSeries) == 0 {
				t.Errorf("%s/%v: empty reward series", er.Env, run.Config)
			}
			if run.SFD < 0 {
				t.Errorf("%s/%v: negative SFD", er.Env, run.Config)
			}
		}
		if _, ok := er.Run(nn.E2E); !ok {
			t.Errorf("%s: missing E2E run", er.Env)
		}
	}
	if rep.MetaTrackers["indoor"] == nil || rep.MetaTrackers["outdoor"] == nil {
		t.Error("meta training trackers missing")
	}
}

func TestNormalizedSFDAgainstE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicates the quick-scale experiment already run by TestRunFlightExperimentStructure")
	}
	rep := runFlight(t, tinyScale(), 0)
	for _, er := range rep.Envs {
		e2e, _ := er.Run(nn.E2E)
		if e2e.SFD > 0 && e2e.NormalizedSFD != 1.0 {
			t.Errorf("%s: E2E normalized SFD = %v, want 1", er.Env, e2e.NormalizedSFD)
		}
		for _, run := range er.Runs {
			if run.NormalizedSFD < 0 {
				t.Errorf("%s/%v: negative normalized SFD", er.Env, run.Config)
			}
		}
	}
}

func TestHardwareReportComplete(t *testing.T) {
	rep := RunHardwareExperiment()
	if len(rep.Forward) != 10 || len(rep.Backward) != 10 {
		t.Errorf("tables %d/%d rows, want 10/10", len(rep.Forward), len(rep.Backward))
	}
	if len(rep.FPS) != 12 {
		t.Errorf("%d FPS points", len(rep.FPS))
	}
	if len(rep.Summary) != 4 || len(rep.MinFPS) != 24 {
		t.Error("summary/minfps sizes wrong")
	}
	if len(rep.Plans) != 4 {
		t.Error("need a memory plan per config")
	}
	if rep.Params.PEs != 1024 {
		t.Error("params wrong")
	}
}

func TestHardwareReportRendering(t *testing.T) {
	rep := RunHardwareExperiment()
	for name, s := range map[string]string{
		"fwd":    rep.ForwardTable(),
		"bwd":    rep.BackwardTable(),
		"fps":    rep.FPSTable(),
		"sum":    rep.SummaryTable(),
		"minfps": rep.MinFPSTable(),
		"plan":   rep.MemoryPlanTable(nn.L3),
	} {
		if len(s) < 50 {
			t.Errorf("%s table suspiciously short:\n%s", name, s)
		}
	}
	if !strings.Contains(rep.ForwardTable(), "FC1") {
		t.Error("forward table must list FC1")
	}
	if !strings.Contains(rep.BackwardTable(), "CONV1") {
		t.Error("backward table must list CONV1")
	}
	if !strings.Contains(rep.MemoryPlanTable(nn.L3), "STT-MRAM") {
		t.Error("plan must mention the stack")
	}
}
