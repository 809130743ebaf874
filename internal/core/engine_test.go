package core

import "testing"

// engineScale is deliberately tiny: the determinism contract is about
// scheduling, not learning quality, and the serial arm runs on one worker.
// It shrinks further in short mode, where the race detector multiplies every
// arithmetic op and the test runs two full experiments.
func engineScale() FlightScale {
	if testing.Short() {
		return FlightScale{MetaIters: 8, OnlineIters: 8, EvalSteps: 8, Seed: 11}
	}
	return FlightScale{MetaIters: 24, OnlineIters: 24, EvalSteps: 24, Seed: 11}
}

// TestParallelEngineMatchesSerial is the engine's core guarantee: every run
// derives its RNG streams from its own job indices, so the worker count —
// serial included — cannot change a single bit of the report.
func TestParallelEngineMatchesSerial(t *testing.T) {
	repS := runFlight(t, engineScale(), 1)
	repP := runFlight(t, engineScale(), 4)

	if len(repS.Envs) != len(repP.Envs) {
		t.Fatalf("env count %d vs %d", len(repS.Envs), len(repP.Envs))
	}
	for i := range repS.Envs {
		es, ep := repS.Envs[i], repP.Envs[i]
		if es.Env != ep.Env || es.WorstLiDegradationPct != ep.WorstLiDegradationPct {
			t.Errorf("env %d headline diverges: %+v vs %+v", i, es, ep)
		}
		for j := range es.Runs {
			rs, rp := es.Runs[j], ep.Runs[j]
			if rs.Config != rp.Config || rs.SFD != rp.SFD || rs.Crashes != rp.Crashes ||
				rs.NormalizedSFD != rp.NormalizedSFD {
				t.Errorf("%s/%v: serial and parallel runs diverge: %+v vs %+v",
					es.Env, rs.Config, rs, rp)
			}
			if len(rs.RewardSeries) != len(rp.RewardSeries) {
				t.Fatalf("%s/%v: reward series lengths diverge", es.Env, rs.Config)
			}
			for k := range rs.RewardSeries {
				if rs.RewardSeries[k] != rp.RewardSeries[k] {
					t.Fatalf("%s/%v: reward series diverges at %d", es.Env, rs.Config, k)
				}
			}
		}
	}
	for _, kind := range []string{"indoor", "outdoor"} {
		ts, tp := repS.MetaTrackers[kind], repP.MetaTrackers[kind]
		if ts == nil || tp == nil {
			t.Fatalf("%s meta tracker missing", kind)
		}
		if ts.CumulativeReward() != tp.CumulativeReward() {
			t.Errorf("%s meta training diverges: %v vs %v",
				kind, ts.CumulativeReward(), tp.CumulativeReward())
		}
	}
}

// TestAblationEnginesMatchSerial extends the same guarantee to the ablation
// drivers, which share the pool.
func TestAblationEnginesMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("flight-experiment determinism already covered in short mode")
	}
	scale := engineScale()
	richS, richP := NewRicherMetaExperiment(scale), NewRicherMetaExperiment(scale)
	runExp(t, richS, 1)
	runExp(t, richP, 3)
	if rs, rp := richS.Result(), richP.Result(); rs != rp {
		t.Errorf("richer-meta ablation diverges: %+v vs %+v", rs, rp)
	}

	stereoS, stereoP := NewStereoExperiment(scale), NewStereoExperiment(scale)
	runExp(t, stereoS, 1)
	runExp(t, stereoP, 3)
	if ss, sp := stereoS.Result(), stereoP.Result(); ss != sp {
		t.Errorf("stereo ablation diverges: %+v vs %+v", ss, sp)
	}
}

// TestWorkersDefaultIsParallelSchedule pins the WithWorkers semantics: zero
// must resolve to GOMAXPROCS and still satisfy the determinism contract
// against an explicit worker count.
func TestWorkersDefaultIsParallelSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestParallelEngineMatchesSerial in short mode")
	}
	repD := runFlight(t, engineScale(), 0)
	repT := runFlight(t, engineScale(), 2)
	for i := range repD.Envs {
		for j := range repD.Envs[i].Runs {
			d, w := repD.Envs[i].Runs[j], repT.Envs[i].Runs[j]
			if d.SFD != w.SFD || d.Crashes != w.Crashes {
				t.Fatalf("default schedule diverges from Workers=2 at env %d run %d", i, j)
			}
		}
	}
}
