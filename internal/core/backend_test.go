package core

import (
	"context"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"
)

// backendTestScale returns a tiny but learning-shaped budget.
func backendTestScale() FlightScale {
	iters := 24
	if testing.Short() {
		iters = 10
	}
	return FlightScale{MetaIters: iters, OnlineIters: iters, EvalSteps: iters, Seed: 5}
}

// TestFloatAndQuantBackendsAgreeOnBuiltinScenarios is the backend
// equivalence satellite: on every builtin scenario's evaluation phase the
// 16-bit integer engine must take the same greedy action as the float
// reference almost always — the quantization may flip near-ties, nothing
// more.
func TestFloatAndQuantBackendsAgreeOnBuiltinScenarios(t *testing.T) {
	spec := nn.NavNetSpec()
	metaIters, evalSteps := 150, 120
	if testing.Short() {
		metaIters, evalSteps = 60, 60
	}
	snaps := map[string]*nn.Snapshot{}
	var agree, total int
	for _, s := range env.Scenarios() {
		w := s.Build(7)
		if snaps[w.Kind] == nil {
			meta := env.MetaForKind(w.Kind, 107)
			opts := rl.Options{Seed: 9, BatchSize: 4, EpsDecaySteps: metaIters / 2}
			snaps[w.Kind], _ = transfer.MetaTrain(meta, spec, metaIters, opts)
		}
		agent, err := transfer.Deploy(snaps[w.Kind], spec, nn.L3, rl.Options{Seed: 11, BatchSize: 4})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		quant, err := nn.NewBackendFor("quant", agent.Net, spec, nn.L3)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		w.Spawn()
		scAgree := 0
		obs := env.DepthImage(w.Depths(), w.Camera.MaxRange)
		for i := 0; i < evalSteps; i++ {
			aFloat := agent.Greedy(obs)
			q := quant.Infer(obs)
			aQuant := 0
			for j, v := range q {
				if v > q[aQuant] {
					aQuant = j
				}
			}
			if aFloat == aQuant {
				scAgree++
			}
			// The float action drives the flight: both backends see the
			// exact same observation stream.
			res := w.Step(env.Action(aFloat))
			obs = env.DepthImage(res.Depths, w.Camera.MaxRange)
		}
		t.Logf("%s: %d/%d greedy actions agree", s.Name, scAgree, evalSteps)
		if frac := float64(scAgree) / float64(evalSteps); frac < 0.70 {
			t.Errorf("%s: quant agrees with float on only %.0f%% of actions", s.Name, 100*frac)
		}
		agree += scAgree
		total += evalSteps
	}
	if frac := float64(agree) / float64(total); frac < 0.85 {
		t.Errorf("overall agreement %.1f%% below 85%%", 100*frac)
	}
}

// TestExplicitFloatBackendBitIdentical: selecting the float backend by name
// must reproduce the backend-less pipeline exactly.
func TestExplicitFloatBackendBitIdentical(t *testing.T) {
	scale := backendTestScale()
	base, err := NewFlightExperiment(scale, "indoor-apartment")
	if err != nil {
		t.Fatal(err)
	}
	if err := Run(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	withFloat, err := NewFlightExperiment(scale, "indoor-apartment")
	if err != nil {
		t.Fatal(err)
	}
	overrides, err := rl.NewOptions(rl.WithEvalBackend(FloatBackendName))
	if err != nil {
		t.Fatal(err)
	}
	withFloat.SetAgentOverrides(overrides)
	if err := Run(context.Background(), withFloat, WithWorkers(3)); err != nil {
		t.Fatal(err)
	}
	a, b := base.Report(), withFloat.Report()
	for i := range a.Envs {
		for j := range a.Envs[i].Runs {
			ra, rb := a.Envs[i].Runs[j], b.Envs[i].Runs[j]
			if ra.SFD != rb.SFD || ra.Crashes != rb.Crashes {
				t.Errorf("%s/%v: float backend diverges: SFD %v vs %v, crashes %d vs %d",
					a.Envs[i].Env, ra.Config, ra.SFD, rb.SFD, ra.Crashes, rb.Crashes)
			}
			if rb.Backend != FloatBackendName {
				t.Errorf("run backend %q, want float", rb.Backend)
			}
			if rb.EvalCost != (nn.BackendCost{}) {
				t.Errorf("float backend reported costs %+v", rb.EvalCost)
			}
		}
	}
	if b.Energy != nil {
		t.Error("float backend must not produce an energy ledger")
	}
}

// TestSystolicBackendFlightAcceptance is the PR's acceptance criterion:
// a flight run with the systolic backend emits nonzero per-phase energy
// events, accumulates a merged per-device ledger, and the run costs are
// deterministic — serial and 4-worker schedules agree bit for bit.
func TestSystolicBackendFlightAcceptance(t *testing.T) {
	scale := backendTestScale()
	run := func(workers int, progress ProgressFunc) *FlightReport {
		e, err := NewFlightExperiment(scale, "indoor-apartment")
		if err != nil {
			t.Fatal(err)
		}
		overrides, err := rl.NewOptions(rl.WithEvalBackend(SystolicBackendName))
		if err != nil {
			t.Fatal(err)
		}
		e.SetAgentOverrides(overrides)
		opts := []RunOption{WithWorkers(workers)}
		if progress != nil {
			opts = append(opts, WithProgress(progress))
		}
		if err := Run(context.Background(), e, opts...); err != nil {
			t.Fatal(err)
		}
		return e.Report()
	}

	var evalEvents, energyEvents int
	serial := run(1, func(ev Event) {
		if ev.Phase != "evaluate" {
			return
		}
		evalEvents++
		if ev.Backend != SystolicBackendName {
			t.Errorf("evaluate event backend %q", ev.Backend)
		}
		if ev.EnergyMJ > 0 && ev.LatencyMS > 0 && ev.Cycles > 0 {
			energyEvents++
		}
	})
	if evalEvents == 0 || energyEvents != evalEvents {
		t.Fatalf("%d evaluate events, %d with full cost data", evalEvents, energyEvents)
	}

	if serial.Energy == nil {
		t.Fatal("no merged energy ledger")
	}
	if serial.Energy.TotalEnergyPJ() <= 0 {
		t.Error("merged ledger has no energy")
	}
	mram := serial.Energy.Total("STT-MRAM")
	if mram.ReadBits <= 0 {
		t.Error("no weight streams recorded against the stack")
	}
	if mram.WriteBits != 0 {
		t.Error("greedy evaluation wrote the STT-MRAM stack")
	}
	if serial.BuildEnergyTable() == nil {
		t.Error("energy table must render for cost-reporting backends")
	}
	var inferences int64
	for _, e := range serial.Envs {
		for _, r := range e.Runs {
			inferences += r.EvalCost.Inferences
			if r.EvalCost.EnergyMJ <= 0 {
				t.Errorf("%s/%v: zero evaluation energy", e.Env, r.Config)
			}
		}
	}
	if inferences == 0 {
		t.Fatal("no inferences charged")
	}

	// Determinism across worker counts, costs and ledger included.
	parallel := run(4, nil)
	if parallel.Energy.TotalEnergyPJ() != serial.Energy.TotalEnergyPJ() {
		t.Errorf("parallel ledger energy %v != serial %v",
			parallel.Energy.TotalEnergyPJ(), serial.Energy.TotalEnergyPJ())
	}
	for i := range serial.Envs {
		for j := range serial.Envs[i].Runs {
			rs, rp := serial.Envs[i].Runs[j], parallel.Envs[i].Runs[j]
			if rs.SFD != rp.SFD || rs.EvalCost != rp.EvalCost {
				t.Errorf("%s/%v: serial and parallel runs diverge: %+v vs %+v",
					serial.Envs[i].Env, rs.Config, rs.EvalCost, rp.EvalCost)
			}
		}
	}
	// Cost sanity: energy totals scale with the modeled per-inference cost
	// and stay within physical bounds (mJ per frame on a ~10 W platform).
	perInfer := serial.Envs[0].Runs[0].EvalCost.EnergyMJ / float64(serial.Envs[0].Runs[0].EvalCost.Inferences)
	if perInfer <= 0 || perInfer > 100 {
		t.Errorf("per-inference energy %v mJ implausible", perInfer)
	}
}
