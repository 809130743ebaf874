package transfer

import (
	"strings"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
)

// TestRunOnlineRemoteActors drives the full transfer pipeline through the
// distributed arm: opts.Remote wire-protocol actors against an in-process
// learner over loopback TCP. The run must deliver the whole step budget,
// train, publish (charging the publish energy to the right devices), and
// hand the trained policy to the same greedy evaluation as every other
// path.
func TestRunOnlineRemoteActors(t *testing.T) {
	spec := nn.NavNetSpec()
	meta := env.IndoorMeta(57)
	snap, _ := MetaTrain(meta, spec, 40, fastOpts(57))

	opts := fastOpts(58)
	opts.Remote = 2
	opts.SyncEvery = 4

	world := env.IndoorApartment(59)
	res, err := RunOnline(snap, world, spec, nn.L3, 240, 60, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Remote != 2 {
		t.Errorf("remote = %d, want 2", res.Remote)
	}
	if res.Reconnects != 0 {
		t.Errorf("reconnects = %d on a clean loopback link", res.Reconnects)
	}
	if res.Training == nil || res.Training.Steps() != 240 {
		t.Fatalf("training tracker did not cover the budget: %+v", res.Training)
	}
	if res.Publishes == 0 {
		t.Error("no policy publishes in a distributed run")
	}
	if res.PublishMJ <= 0 || res.PublishLedger == nil {
		t.Fatal("publish energy not charged")
	}
	for _, dev := range res.PublishLedger.Devices() {
		if !strings.Contains(dev, "SRAM") {
			t.Errorf("L3 publish traffic charged to %q, want SRAM only", dev)
		}
	}
	if res.Eval == nil || res.Eval.Steps() == 0 {
		t.Error("no evaluation flight after distributed training")
	}
}

// TestRunOnlineRemoteZeroUntouched pins the guarantee that leaving Remote
// at 0 selects exactly the in-process pipeline: a run with rl.WithRemote(0)
// semantics leaves the trackers the single-actor schedule left at 2c75f9e
// (hash captured there, where the run was also compared with the since
// deleted synchronous wrapper), so the distributed subsystem is invisible
// until asked for.
func TestRunOnlineRemoteZeroUntouched(t *testing.T) {
	skipOffAMD64(t)
	spec := nn.NavNetSpec()
	meta := env.IndoorMeta(61)
	snap, _ := MetaTrain(meta, spec, 40, fastOpts(61))

	opts := fastOpts(63)
	opts.Remote = 0
	piped, err := RunOnline(snap, env.IndoorApartment(62), spec, nn.L3, 160, 80, opts)
	if err != nil {
		t.Fatal(err)
	}
	if piped.Remote != 0 || piped.Reconnects != 0 {
		t.Errorf("remote fields leaked into an in-process run: %+v", piped)
	}
	const want = "ed1f5ceaf3d31c9d43d39afba90779e39f4cc52b5072ef9538b5a2825ddf14f0"
	if got := onlineRunHash(piped); got != want {
		t.Errorf("remote=0 run moved: trackers hash %s, want %s", got, want)
	}
}
