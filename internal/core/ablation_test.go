package core

import "testing"

// ablationScale shrinks in short mode; the assertions only need SFDs to be
// positive, which holds at any budget.
func ablationScale(seed int64) FlightScale {
	if testing.Short() {
		return FlightScale{MetaIters: 12, OnlineIters: 12, EvalSteps: 12, Seed: seed}
	}
	return FlightScale{MetaIters: 120, OnlineIters: 100, EvalSteps: 120, Seed: seed}
}

func TestRicherMetaAblationRuns(t *testing.T) {
	e := NewRicherMetaExperiment(ablationScale(5))
	runExp(t, e, 0)
	res := e.Result()
	if res.TownSFDStandard <= 0 || res.TownSFDRich <= 0 {
		t.Errorf("ablation produced non-positive SFDs: %+v", res)
	}
}

func TestStereoAblationRuns(t *testing.T) {
	e := NewStereoExperiment(ablationScale(6))
	runExp(t, e, 0)
	res := e.Result()
	if res.SFDIdeal <= 0 || res.SFDStereo <= 0 {
		t.Errorf("ablation produced non-positive SFDs: %+v", res)
	}
}
