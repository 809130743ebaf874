package rl

import (
	"sync"
	"sync/atomic"
)

// Clock is the shared monotonic time base of the online-learning pipeline.
// The serial loop used per-agent step counters for the epsilon schedule and
// the target-network sync; under an actor/learner split those counters live
// in several goroutines at once, so both schedules key off this clock
// instead: EnvSteps is the global count of environment steps taken by every
// actor together, TrainSteps the learner's completed weight updates. With
// one actor the clock advances exactly like the historical counters, which
// is what keeps the deterministic mode bit-identical to the serial loop.
type Clock struct {
	env   atomic.Int64
	train atomic.Int64

	mu   sync.Mutex
	cond *sync.Cond
}

// newClock returns a clock at zero.
func newClock() *Clock {
	c := &Clock{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// TickEnv advances the environment-step counter and returns the new value.
// Waiters blocked in WaitEnv are woken.
func (c *Clock) TickEnv() int64 {
	t := c.env.Add(1)
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
	return t
}

// EnvSteps returns the number of environment steps taken so far.
func (c *Clock) EnvSteps() int64 { return c.env.Load() }

// TickTrain advances the training-step counter and returns the new value.
func (c *Clock) TickTrain() int64 { return c.train.Add(1) }

// TrainSteps returns the number of completed weight updates.
func (c *Clock) TrainSteps() int64 { return c.train.Load() }

// WaitEnv blocks until the environment-step counter reaches at, or until
// giveUp reports true (checked whenever the clock advances and once before
// waiting). Wake wakes all waiters without advancing the clock, for
// cancellation paths that flip giveUp.
func (c *Clock) WaitEnv(at int64, giveUp func() bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.env.Load() < at && !giveUp() {
		c.cond.Wait()
	}
}

// Wake wakes every WaitEnv waiter so it can re-check its give-up condition.
func (c *Clock) Wake() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}
