package core

import (
	"strings"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/hw"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

func TestRunMissionBudgetExhaustion(t *testing.T) {
	w := env.IndoorApartment(41)
	agent := rl.NewAgent(nn.NavNetSpec(), nn.L3, rl.Options{Seed: 41})
	model := hw.NewModel()
	res := RunMission(w, agent, model, MissionConfig{
		ComputeBudgetJ: 5, MaxFrames: 100000, Online: true,
	})
	if res.Frames == 0 {
		t.Fatal("mission flew no frames")
	}
	if res.EnergySpentJ > 5 {
		t.Errorf("overspent the budget: %v J", res.EnergySpentJ)
	}
	perFrame := model.EnergyPerFrameMJ(nn.L3) / 1000
	if res.EnergySpentJ+perFrame <= 5 && res.Frames < 100000 {
		t.Errorf("stopped early: spent %v of 5 J in %d frames", res.EnergySpentJ, res.Frames)
	}
	if res.DistanceM <= 0 || res.WallClockS <= 0 || res.FPS <= 0 {
		t.Errorf("implausible mission result: %+v", res)
	}
	if !strings.Contains(res.String(), "L3") {
		t.Error("summary must name the config")
	}
}

func TestRunMissionFrameBound(t *testing.T) {
	w := env.IndoorApartment(42)
	agent := rl.NewAgent(nn.NavNetSpec(), nn.L2, rl.Options{Seed: 42})
	res := RunMission(w, agent, hw.NewModel(), MissionConfig{
		ComputeBudgetJ: 1e9, MaxFrames: 50, Online: false,
	})
	if res.Frames != 50 {
		t.Errorf("frames = %d, want 50", res.Frames)
	}
}

func TestRunMissionInferenceOnlyCheaper(t *testing.T) {
	// With the same budget, an inference-only mission must process more
	// frames than an online-learning one (training costs energy).
	budget := 20.0
	mkRes := func(online bool) MissionResult {
		w := env.IndoorApartment(43)
		agent := rl.NewAgent(nn.NavNetSpec(), nn.L4, rl.Options{Seed: 43})
		return RunMission(w, agent, hw.NewModel(), MissionConfig{
			ComputeBudgetJ: budget, MaxFrames: 1 << 20, Online: online,
		})
	}
	inf := mkRes(false)
	learn := mkRes(true)
	if inf.Frames <= learn.Frames {
		t.Errorf("inference-only %d frames <= online %d", inf.Frames, learn.Frames)
	}
}

func TestCompareMissionsCoDesignPayoff(t *testing.T) {
	if testing.Short() {
		// The mission experiment meta-trains a fixed 800 iterations; the quick
		// mission tests above keep the subsystem covered in short mode.
		t.Skip("fixed-budget meta training dominates the race job")
	}
	e := NewMissionExperiment(44, 30, true)
	runExp(t, e, 0)
	results := e.Results()
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	byCfg := map[nn.Config]MissionResult{}
	for _, r := range results {
		byCfg[r.Config] = r
	}
	// The co-design's end-to-end payoff: within the same budget every
	// Li flies at least 2.5x the E2E frames (energy per frame is ~4.7x
	// lower for L4).
	for _, cfg := range []nn.Config{nn.L2, nn.L3, nn.L4} {
		gain := float64(byCfg[cfg].Frames) / float64(byCfg[nn.E2E].Frames)
		if gain < 2.5 {
			t.Errorf("%v processes only %.2fx the E2E frames under one budget", cfg, gain)
		}
	}
	// And it does so faster in wall-clock terms (higher fps).
	if byCfg[nn.L4].FPS <= byCfg[nn.E2E].FPS {
		t.Error("L4 must sustain a higher frame rate than E2E")
	}
}
