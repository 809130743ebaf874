package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMovingAverageBasics(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Mean() != 0 || m.Count() != 0 {
		t.Fatal("fresh window must be empty")
	}
	if got := m.Add(3); got != 3 {
		t.Errorf("after 1 sample mean = %v", got)
	}
	m.Add(6)
	if got := m.Mean(); got != 4.5 {
		t.Errorf("mean of {3,6} = %v", got)
	}
	m.Add(9)
	if got := m.Mean(); got != 6 {
		t.Errorf("mean of {3,6,9} = %v", got)
	}
	// Window slides: oldest (3) evicted.
	m.Add(12)
	if got := m.Mean(); got != 9 {
		t.Errorf("mean of {6,9,12} = %v", got)
	}
	if m.Count() != 3 {
		t.Errorf("count = %d", m.Count())
	}
}

func TestMovingAveragePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewMovingAverage(0)
}

func TestMovingAverageMatchesNaive(t *testing.T) {
	err := quick.Check(func(xs []float64) bool {
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				xs[i] = 1
			}
			xs[i] = math.Mod(xs[i], 1e6)
		}
		const w = 5
		m := NewMovingAverage(w)
		for i := range xs {
			m.Add(xs[i])
			lo := i - w + 1
			if lo < 0 {
				lo = 0
			}
			var want float64
			for _, v := range xs[lo : i+1] {
				want += v
			}
			want /= float64(i + 1 - lo)
			if math.Abs(m.Mean()-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func TestFlightTrackerEpisodes(t *testing.T) {
	f := NewFlightTracker(10, 5, 1)
	// Two episodes: 3 steps then crash at distance 9; 2 steps then crash
	// at distance 4.
	f.Step(1, false, 0)
	f.Step(1, false, 0)
	f.Step(1, false, 0)
	f.Step(0, true, 9)
	f.Step(0.5, false, 0)
	f.Step(0.5, false, 0)
	f.Step(0, true, 4)

	if f.Crashes() != 2 {
		t.Errorf("crashes = %d, want 2", f.Crashes())
	}
	if got := f.SafeFlightDistance(); got != 6.5 {
		t.Errorf("SFD = %v, want 6.5", got)
	}
	// Episode returns: 3/3=1 and 1/2=0.5 -> smoothed mean 0.75.
	if got := f.Return(); got != 0.75 {
		t.Errorf("return = %v, want 0.75", got)
	}
	if f.Steps() != 7 {
		t.Errorf("steps = %d", f.Steps())
	}
}

func TestFlightTrackerNoCrashes(t *testing.T) {
	f := NewFlightTracker(10, 5, 1)
	f.Step(1, false, 0)
	if f.SafeFlightDistance() != 0 {
		t.Error("SFD with no crash must be 0")
	}
}

func TestFlightTrackerSeriesSampling(t *testing.T) {
	f := NewFlightTracker(100, 5, 10)
	for i := 0; i < 100; i++ {
		f.Step(1, false, 0)
	}
	if got := len(f.RewardSeries()); got != 10 {
		t.Errorf("sampled %d reward points, want 10", got)
	}
	if got := len(f.ReturnSeries()); got != 10 {
		t.Errorf("sampled %d return points, want 10", got)
	}
}

func TestFlightTrackerCumulativeConvergence(t *testing.T) {
	// A constant reward stream must converge to that constant.
	f := NewFlightTracker(50, 5, 1)
	for i := 0; i < 200; i++ {
		f.Step(0.8, false, 0)
	}
	if math.Abs(f.CumulativeReward()-0.8) > 1e-9 {
		t.Errorf("cumulative reward = %v, want 0.8", f.CumulativeReward())
	}
}

func TestDistanceSeriesRecordsEveryEpisode(t *testing.T) {
	f := NewFlightTracker(10, 5, 1)
	dists := []float64{3, 1, 4, 1, 5}
	for _, d := range dists {
		f.Step(0, true, d)
	}
	got := f.DistanceSeries()
	if len(got) != len(dists) {
		t.Fatalf("recorded %d episodes", len(got))
	}
	for i := range dists {
		if got[i] != dists[i] {
			t.Errorf("episode %d distance %v, want %v", i, got[i], dists[i])
		}
	}
}
