package rl

import (
	"math/rand"
	"strings"
	"testing"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// TestStructLiteralDefaultsUnchanged pins the historical zero-value
// behaviour: internal callers building Options literals must keep getting
// the documented defaults, or every experiment seed changes.
func TestStructLiteralDefaultsUnchanged(t *testing.T) {
	o := Options{Seed: 5, BatchSize: 2}
	o.setDefaults()
	if o.Gamma != 0.95 || o.LR != 0.005 || o.BatchSize != 2 || o.ReplayCapacity != 4096 {
		t.Errorf("core defaults changed: %+v", o)
	}
	if o.EpsStart != 1.0 || o.EpsEnd != 0.05 || o.EpsDecaySteps != 3000 {
		t.Errorf("epsilon defaults changed: %+v", o)
	}
	if o.TargetSync != 64 || o.GradClip != 1 || o.Seed != 5 {
		t.Errorf("stabilizer defaults changed: %+v", o)
	}
	z := Options{}
	z.setDefaults()
	if z.Seed != 1 {
		t.Errorf("zero seed must default to 1, got %d", z.Seed)
	}
}

// TestExplicitZerosSurviveDefaults is the heart of the option layer: zeros
// that are meaningful (EpsEnd, GradClip, TargetSync, Seed) must survive
// default resolution when set through functional options.
func TestExplicitZerosSurviveDefaults(t *testing.T) {
	o, err := NewOptions(
		WithEpsilon(0.3, 0),
		WithGradClip(0),
		WithTargetSync(0),
		WithSeed(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if o.EpsEnd != 0 {
		t.Errorf("explicit EpsEnd=0 replaced by %v", o.EpsEnd)
	}
	if o.GradClip != 0 {
		t.Errorf("explicit GradClip=0 replaced by %v", o.GradClip)
	}
	if o.TargetSync != 0 {
		t.Errorf("explicit TargetSync=0 replaced by %v", o.TargetSync)
	}
	if o.Seed != 0 {
		t.Errorf("explicit Seed=0 replaced by %v", o.Seed)
	}
	// NewAgent resolves defaults again; resolved options keep their zeros.
	again := o
	again.setDefaults()
	if again != o {
		t.Errorf("setDefaults rewrote resolved options: %+v, want %+v", again, o)
	}
	// Everything left unset still resolves to the documented default.
	if o.Gamma != 0.95 || o.BatchSize != 4 {
		t.Errorf("unset fields lost their defaults: %+v", o)
	}
}

func TestInvalidOptionValuesError(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"gamma zero", WithGamma(0)},
		{"gamma above one", WithGamma(1.5)},
		{"negative lr", WithLR(-0.1)},
		{"zero lr", WithLR(0)},
		{"zero batch", WithBatchSize(0)},
		{"zero replay", WithReplayCapacity(0)},
		{"eps start out of range", WithEpsilon(1.5, 0.1)},
		{"eps end above start", WithEpsilon(0.1, 0.5)},
		{"zero decay", WithEpsDecaySteps(0)},
		{"negative target sync", WithTargetSync(-1)},
		{"negative grad clip", WithGradClip(-2)},
	}
	for _, c := range cases {
		if _, err := NewOptions(c.opt); err == nil {
			t.Errorf("%s: want error, got none", c.name)
		}
	}
}

// TestDoubleDQNRequiresTargetNetwork asserts the documented inconsistent
// combination is rejected rather than silently repaired.
func TestDoubleDQNRequiresTargetNetwork(t *testing.T) {
	_, err := NewOptions(WithDoubleDQN(true), WithTargetSync(0))
	if err == nil {
		t.Fatal("DoubleDQN with TargetSync=0 must fail validation")
	}
	if !strings.Contains(err.Error(), "target network") {
		t.Errorf("error should explain the target-network requirement: %v", err)
	}
	// With the default (or any positive) sync interval it is fine.
	if _, err := NewOptions(WithDoubleDQN(true)); err != nil {
		t.Errorf("DoubleDQN with default TargetSync should validate: %v", err)
	}
}

func TestValidateReplayHoldsBatch(t *testing.T) {
	if _, err := NewOptions(WithBatchSize(64), WithReplayCapacity(8)); err == nil {
		t.Error("replay smaller than one batch must fail validation")
	}
}

// TestWithLayersOptionsOverTemplate asserts a template keeps its values
// except where an option was applied, and that an explicit zero applied
// over a template survives the agent's later default resolution.
func TestWithLayersOptionsOverTemplate(t *testing.T) {
	template := Options{Seed: 42, BatchSize: 4, EpsStart: 0.5, EpsDecaySteps: 200, LR: 0.001}
	m, err := template.With(WithGamma(0.9), WithGradClip(0))
	if err != nil {
		t.Fatal(err)
	}
	m.setDefaults()
	if m.Gamma != 0.9 || m.GradClip != 0 {
		t.Errorf("applied options lost: %+v", m)
	}
	if m.Seed != 42 || m.BatchSize != 4 || m.EpsStart != 0.5 || m.LR != 0.001 {
		t.Errorf("options clobbered untouched template fields: %+v", m)
	}
	// With no options the template only gains its defaults.
	got, err := template.With()
	if err != nil {
		t.Fatal(err)
	}
	want := template
	want.setDefaults()
	want.resolved = true
	if got != want {
		t.Errorf("empty With changed the template: %+v, want %+v", got, want)
	}
	// The combination is validated, not each option alone.
	if _, err := (Options{BatchSize: 32}).With(WithReplayCapacity(16)); err == nil {
		t.Error("replay capacity below the template's batch accepted")
	}
}

// TestEvalBackendOption checks backend selection through the option layer:
// registered names resolve, unknown or empty names fail loudly, and With
// carries a backend onto a template.
func TestEvalBackendOption(t *testing.T) {
	o, err := NewOptions(WithEvalBackend("float"))
	if err != nil {
		t.Fatal(err)
	}
	if o.EvalBackend != "float" {
		t.Errorf("EvalBackend %q", o.EvalBackend)
	}
	if _, err := NewOptions(WithEvalBackend("antigravity")); err == nil {
		t.Error("unknown backend name must fail validation")
	}
	if _, err := NewOptions(WithEvalBackend("")); err == nil {
		t.Error("empty backend name must fail")
	}
	if err := (Options{EvalBackend: "nope"}).Validate(); err == nil {
		t.Error("struct-literal unknown backend must fail Validate")
	}
	template := Options{Seed: 1, BatchSize: 4}
	if m, err := template.With(WithEvalBackend("float")); err != nil || m.EvalBackend != "float" {
		t.Errorf("With dropped the backend: %+v, %v", m, err)
	}
	if got, err := template.With(); err != nil || got.EvalBackend != "" {
		t.Errorf("empty With invented a backend: %+v, %v", got, err)
	}
}

// TestActivateEvalBackendInstallsFloat: the float backend keeps Greedy
// bit-identical while reporting its presence through EvalBackend.
func TestActivateEvalBackendInstallsFloat(t *testing.T) {
	opts, err := NewOptions(WithSeed(3), WithEvalBackend("float"))
	if err != nil {
		t.Fatal(err)
	}
	withB := NewAgent(nn.NavNetSpec(), nn.L3, opts)
	plain := NewAgent(nn.NavNetSpec(), nn.L3, Options{Seed: 3})
	if withB.EvalBackend() != nil {
		t.Error("backend active before ActivateEvalBackend")
	}
	if err := withB.ActivateEvalBackend(); err != nil {
		t.Fatal(err)
	}
	if withB.EvalBackend() == nil || withB.EvalBackend().Name() != "float" {
		t.Fatal("float backend not installed")
	}
	if cost := withB.EvalCost(); cost != (nn.BackendCost{}) {
		t.Errorf("float backend reported costs %+v", cost)
	}
	obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 5; i++ {
		obs.RandUniform(rng, 1)
		if a, b := withB.Greedy(obs), plain.Greedy(obs); a != b {
			t.Fatalf("greedy diverged: %d vs %d", a, b)
		}
	}
	// Re-freezing the topology drops the backend (residency changes).
	withB.SetConfig(nn.L2)
	if withB.EvalBackend() != nil {
		t.Error("SetConfig must invalidate the backend")
	}
}

// TestExplicitGradClipZeroDisablesClipping runs one training step with
// clipping explicitly disabled and checks the agent still learns (the old
// code path would have clipped the whole gradient to zero via limit 0, or
// silently restored the default of 1).
func TestExplicitGradClipZeroDisablesClipping(t *testing.T) {
	opts, err := NewOptions(WithSeed(3), WithBatchSize(2), WithGradClip(0))
	if err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(nn.NavNetSpec(), nn.E2E, opts)
	fillReplay(agent, 4, 9)
	if mse := agent.TrainStep(); mse < 0 {
		t.Fatal("train step did not run")
	}
}
