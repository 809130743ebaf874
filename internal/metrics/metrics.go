// Package metrics implements the learning-quality measures the paper plots:
//
//   - cumulative reward — "the moving average of last N rewards received by
//     the agent", R_i = 1/N * sum_{j=i-N..i} r_j (Fig. 10, left axes);
//   - return — "the moving average of the sum of rewards across episodes",
//     where an episode is the span between two crashes and its return is
//     1/N_k * sum of rewards collected in it (Fig. 10, right axes);
//   - safe flight distance (SFD) — "the average distance (in meters)
//     travelled by the drone before it crashes" (Fig. 11).
package metrics

// MovingAverage is a fixed-window running mean over a scalar stream.
type MovingAverage struct {
	window []float64
	next   int
	filled int
	sum    float64
}

// NewMovingAverage creates a moving average over the last n samples.
func NewMovingAverage(n int) *MovingAverage {
	if n <= 0 {
		panic("metrics: window must be positive")
	}
	return &MovingAverage{window: make([]float64, n)}
}

// Add inserts a sample and returns the current mean.
func (m *MovingAverage) Add(x float64) float64 {
	if m.filled == len(m.window) {
		m.sum -= m.window[m.next]
	} else {
		m.filled++
	}
	m.window[m.next] = x
	m.sum += x
	m.next = (m.next + 1) % len(m.window)
	return m.Mean()
}

// Mean returns the mean of the samples currently in the window; it is 0
// before any sample arrives.
func (m *MovingAverage) Mean() float64 {
	if m.filled == 0 {
		return 0
	}
	return m.sum / float64(m.filled)
}

// Count returns how many samples the window currently holds.
func (m *MovingAverage) Count() int { return m.filled }

// FlightTracker accumulates the per-step reward/crash stream of one flight
// experiment and exposes the paper's three series.
type FlightTracker struct {
	// CumulativeWindow is the smoothing constant N of the cumulative
	// reward (the paper uses 15000 at full scale).
	cum *MovingAverage
	// returns smooths per-episode returns.
	returns *MovingAverage

	episodeReward float64
	episodeSteps  int

	crashes        int
	totalDistance  float64 // sum of completed-episode distances
	totalSteps     int
	rewardSeries   []float64
	returnSeries   []float64
	distanceSeries []float64
	sampleEvery    int
}

// NewFlightTracker creates a tracker; cumWindow smooths the reward stream,
// retWindow smooths episode returns, and sampleEvery controls how often a
// point is recorded into the plotted series (1 = every step).
func NewFlightTracker(cumWindow, retWindow, sampleEvery int) *FlightTracker {
	if sampleEvery <= 0 {
		sampleEvery = 1
	}
	return &FlightTracker{
		cum:         NewMovingAverage(cumWindow),
		returns:     NewMovingAverage(retWindow),
		sampleEvery: sampleEvery,
	}
}

// Step records one action outcome. distanceSinceCrash is the flight
// distance of the just-finished episode when crashed is true (ignored
// otherwise).
func (f *FlightTracker) Step(reward float64, crashed bool, distanceAtCrash float64) {
	f.totalSteps++
	f.cum.Add(reward)
	if f.totalSteps%f.sampleEvery == 0 {
		f.rewardSeries = append(f.rewardSeries, f.cum.Mean())
		f.returnSeries = append(f.returnSeries, f.returns.Mean())
	}
	if crashed {
		f.crashes++
		f.totalDistance += distanceAtCrash
		f.distanceSeries = append(f.distanceSeries, distanceAtCrash)
		if f.episodeSteps > 0 {
			f.returns.Add(f.episodeReward / float64(f.episodeSteps))
		}
		f.episodeReward = 0
		f.episodeSteps = 0
		return
	}
	f.episodeReward += reward
	f.episodeSteps++
}

// CumulativeReward returns the current smoothed reward.
func (f *FlightTracker) CumulativeReward() float64 { return f.cum.Mean() }

// Return returns the current smoothed per-episode return.
func (f *FlightTracker) Return() float64 { return f.returns.Mean() }

// SafeFlightDistance returns the average distance flown between crashes.
// While no crash has occurred it returns the (censored) current flight
// distance budgeted over one episode.
func (f *FlightTracker) SafeFlightDistance() float64 {
	if f.crashes == 0 {
		return 0
	}
	return f.totalDistance / float64(f.crashes)
}

// Crashes returns the number of completed episodes.
func (f *FlightTracker) Crashes() int { return f.crashes }

// Steps returns the number of recorded steps.
func (f *FlightTracker) Steps() int { return f.totalSteps }

// RewardSeries returns the sampled cumulative-reward curve (Fig. 10 left).
func (f *FlightTracker) RewardSeries() []float64 { return f.rewardSeries }

// ReturnSeries returns the sampled return curve (Fig. 10 right).
func (f *FlightTracker) ReturnSeries() []float64 { return f.returnSeries }

// DistanceSeries returns every completed episode's flight distance.
// transfer's golden pins (TestRunOnlineActorsOneGolden and its kin, through
// hashTracker) hash it.
func (f *FlightTracker) DistanceSeries() []float64 { return f.distanceSeries }
