package transfer

import (
	"context"
	"strings"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

func fastOpts(seed int64) rl.Options {
	return rl.Options{Seed: seed, BatchSize: 2, EpsDecaySteps: 100, ReplayCapacity: 256}
}

func TestMetaTrainProducesSnapshot(t *testing.T) {
	meta := env.IndoorMeta(31)
	snap, tracker := MetaTrain(meta, nn.NavNetSpec(), 60, fastOpts(31))
	if snap == nil || len(snap.Data) == 0 {
		t.Fatal("no snapshot produced")
	}
	if snap.Arch != "NavNet" {
		t.Errorf("snapshot arch %q", snap.Arch)
	}
	if tracker.Steps() != 60 {
		t.Errorf("meta training ran %d steps", tracker.Steps())
	}
}

func TestDeployRestoresWeightsAndFreezes(t *testing.T) {
	meta := env.IndoorMeta(32)
	spec := nn.NavNetSpec()
	snap, _ := MetaTrain(meta, spec, 40, fastOpts(32))

	agent, err := Deploy(snap, spec, nn.L2, fastOpts(33))
	if err != nil {
		t.Fatal(err)
	}
	// Weights must equal the snapshot.
	ps := agent.Net.Params()
	for i, p := range ps {
		for j, v := range p.W.Data() {
			if v != snap.Data[i][j] {
				t.Fatalf("weight %s[%d] not transferred", p.Name, j)
			}
		}
	}
	// The trainable boundary must be the L2 one (last 2 FC layers).
	if agent.Net.TrainableWeightCount() != spec.TrainedWeights(nn.L2) {
		t.Errorf("L2 deployment trains %d weights, want %d",
			agent.Net.TrainableWeightCount(), spec.TrainedWeights(nn.L2))
	}
	// The frozen target network (if any) must also carry the snapshot.
	if agent.Target != nil {
		pt := agent.Target.Params()
		for i := range pt {
			for j, v := range pt[i].W.Data() {
				if v != snap.Data[i][j] {
					t.Fatal("target network did not receive transferred weights")
				}
			}
		}
	}
}

func TestDeployRejectsWrongArch(t *testing.T) {
	meta := env.IndoorMeta(34)
	snap, _ := MetaTrain(meta, nn.NavNetSpec(), 30, fastOpts(34))
	other := nn.ArchSpec{
		Name:   "other",
		InputC: 1, InputH: 8, InputW: 8,
		FCs:   []nn.FCSpec{{Name: "FC1", In: 64, Out: 5}},
		PoolK: 2, PoolStride: 2,
	}
	if _, err := Deploy(snap, other, nn.E2E, fastOpts(35)); err == nil {
		t.Fatal("expected architecture mismatch error")
	}
}

func TestRunOnlineEndToEnd(t *testing.T) {
	spec := nn.NavNetSpec()
	meta := env.IndoorMeta(36)
	snap, _ := MetaTrain(meta, spec, 40, fastOpts(36))
	test := env.IndoorApartment(37)
	res, err := RunOnline(context.Background(), snap, test, spec, nn.L3, 80, 40, fastOpts(37))
	if err != nil {
		t.Fatal(err)
	}
	if res.Env != "indoor apartment" || res.Config != nn.L3 {
		t.Errorf("result metadata wrong: %+v", res)
	}
	if res.Training.Steps() != 80 {
		t.Errorf("online training steps = %d", res.Training.Steps())
	}
	if res.Eval.Steps() != 40 {
		t.Errorf("eval steps = %d", res.Eval.Steps())
	}
	_ = res.SFD() // must not panic even with few crashes
}

func TestResultSFDNilEval(t *testing.T) {
	var r Result
	if r.SFD() != 0 {
		t.Error("SFD of empty result must be 0")
	}
}

// TestDeployRejectsArchMismatch asserts the transfer pipeline refuses a
// snapshot labelled with a different architecture instead of attempting a
// partial restore.
func TestDeployRejectsArchMismatch(t *testing.T) {
	spec := nn.NavNetSpec()
	snap := nn.TakeSnapshot(spec.Build(), "AlexNet")
	if _, err := Deploy(snap, spec, nn.L3, rl.Options{Seed: 1}); err == nil {
		t.Fatal("deploying an AlexNet snapshot onto NavNet must fail")
	} else if !strings.Contains(err.Error(), "AlexNet") {
		t.Errorf("error should name the mismatched arch: %v", err)
	}
}
