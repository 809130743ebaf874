package rl

import (
	"context"
	"sync"

	"dronerl/internal/metrics"
	"dronerl/internal/nn"
)

// Learner is the learner half of online RL, written once. On the agent's
// clock the k-th TrainStep comes due when the actors have taken
// k*TrainEvery+1 env steps since the run began, and every SyncEvery completed
// updates the trainable weights go to Board. The in-process fleet
// (OnlineLoop over several worlds) and the network learner (internal/dist)
// both run it. What only a host knows — what a publish fans out to, what
// follows an update, when the steps still due will never come — arrives as
// hooks.
type Learner struct {
	// Agent trains and publishes its network; its clock paces the loop.
	Agent *Agent
	// Replay, the store the actors feed, is TrainStep's source for the run.
	Replay ReplaySource
	// Board receives every publish.
	Board *nn.PolicyBoard
	// Tracker, when set, accumulates the actors' flight statistics (Track).
	Tracker *metrics.FlightTracker
	// TrainEvery is the cadence in env steps (default 4) and SyncEvery the
	// publish interval in completed updates (default the agent's option).
	TrainEvery, SyncEvery int
	// Lock, when set, is held around every TrainStep: a host that reads
	// Agent.Net from other goroutines does so under it.
	Lock sync.Locker
	// OnPublish observes every publish, on the learner goroutine, after the
	// board swap.
	OnPublish func(version uint64)
	// AfterUpdate runs after every completed update and its publish, with
	// the run's update and publish counts so far; an error ends the run.
	AfterUpdate func(trained, publishes int) error
	// Stop reports that the env steps still due will never arrive; the loop
	// then ends at its next wait. Whoever makes it true calls Clock.Wake.
	Stop func() bool

	trackMu sync.Mutex
}

// cadence resolves a learner's defaults: an update every 4 env steps, a
// publish every SyncEvery (the agent's option, 8 unset) updates.
func (a *Agent) cadence(trainEvery, syncEvery int) (int, int) {
	if trainEvery <= 0 {
		trainEvery = 4
	}
	if syncEvery <= 0 {
		syncEvery = a.opts.SyncEvery
	}
	return trainEvery, syncEvery
}

// Run trains until every update due over steps env steps after envStart has
// run, until Stop, or until ctx is cancelled (reported as ctx.Err()). It
// returns the number of publishes, and every goroutine it started has exited
// by then. Within one update the order is TrainStep, publish, AfterUpdate; a
// due update that finds less than one batch in replay is skipped and
// publishes nothing. A learner that lags its actors drains the backlog, so
// the training work is the same under any interleaving.
func (l *Learner) Run(ctx context.Context, envStart int64, steps int) (publishes int, err error) {
	a := l.Agent
	l.TrainEvery, l.SyncEvery = a.cadence(l.TrainEvery, l.SyncEvery)
	a.SetReplaySource(l.Replay)
	defer a.SetReplaySource(nil)

	// Cancellation wakes the loop out of its clock wait.
	clock := a.clock
	waitCtx, cancel := context.WithCancel(ctx)
	woken := make(chan struct{})
	go func() {
		<-waitCtx.Done()
		clock.Wake()
		close(woken)
	}()
	defer func() {
		cancel()
		<-woken
	}()

	lock := l.Lock
	if lock == nil {
		lock = new(sync.Mutex) // no host reads Agent.Net concurrently
	}
	giveUp := func() bool { return ctx.Err() != nil || l.Stop != nil && l.Stop() }
	trained := 0
	for k := 0; k < (steps+l.TrainEvery-1)/l.TrainEvery; k++ {
		due := envStart + int64(k*l.TrainEvery) + 1
		clock.WaitEnv(due, giveUp)
		if ctx.Err() != nil {
			return publishes, ctx.Err()
		}
		if clock.EnvSteps() < due {
			break // stopped: the steps still due will never arrive
		}
		lock.Lock()
		mse := a.TrainStep()
		lock.Unlock()
		if mse < 0 {
			continue // replay below one batch: no update, nothing to publish
		}
		trained++
		if trained%l.SyncEvery == 0 {
			// Publishes count completed updates only, so a snapshot (and its
			// charged NVM/SRAM write) always carries new weights.
			v := l.Board.Publish(a.Net, a.spec.Name)
			publishes++
			if l.OnPublish != nil {
				l.OnPublish(v)
			}
		}
		if l.AfterUpdate != nil {
			if err := l.AfterUpdate(trained, publishes); err != nil {
				return publishes, err
			}
		}
	}
	return publishes, ctx.Err()
}

// Track records one actor step in Tracker, serializing concurrent actors.
func (l *Learner) Track(reward float64, crashed bool, distance float64) {
	if l.Tracker == nil {
		return
	}
	l.trackMu.Lock()
	l.Tracker.Step(reward, crashed, distance)
	l.trackMu.Unlock()
}
