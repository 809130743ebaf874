package rl

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// lockstepReplay is a one-shard replay that reports, for every TrainStep,
// how many transitions that step found, and holds the learner until the
// feed has read it.
type lockstepReplay struct {
	*ReplayShards
	looked chan int
}

func (r lockstepReplay) Len() int {
	n := r.ReplayShards.Len()
	r.looked <- n
	return n
}

// TestLearnerCadence drives the one learner with a scripted feed in
// lockstep: one goroutine pushes N transitions into a shard and ticks the
// clock, and at every due step waits for the learner's attempt. The counts
// are then exact: one attempt per TrainEvery env steps, an update for every
// attempt that found a batch, a publish every SyncEvery updates with the
// versions in order, and AfterUpdate once per update after its publish.
func TestLearnerCadence(t *testing.T) {
	const n, trainEvery, syncEvery, batch = 98, 4, 3, 8
	agent := NewAgent(nn.NavNetSpec(), nn.L3, Options{Seed: 5, BatchSize: batch, ReplayCapacity: 128})
	replay := lockstepReplay{NewReplayShards(1, 128), make(chan int)}
	var versions []uint64
	var afterUpdates []int
	l := &Learner{
		Agent: agent, Replay: replay, Board: nn.NewPolicyBoard(),
		TrainEvery: trainEvery, SyncEvery: syncEvery,
		OnPublish: func(v uint64) { versions = append(versions, v) },
		AfterUpdate: func(trained int) error {
			if len(versions) != trained/syncEvery {
				t.Errorf("AfterUpdate(%d) ran with %d publishes seen, want %d", trained, len(versions), trained/syncEvery)
			}
			afterUpdates = append(afterUpdates, trained)
			return nil
		},
	}

	rng := rand.New(rand.NewSource(6))
	obs := func() *tensor.Tensor {
		o := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		o.RandN(rng, 1)
		return o
	}
	seen := make(chan []int, 1)
	go func() {
		var lens []int
		for i := 1; i <= n; i++ {
			replay.PushTo(0, Transition{State: obs(), Action: i % 5, Reward: 0.5, Next: obs()})
			agent.Clock().TickEnv()
			if (i-1)%trainEvery == 0 {
				lens = append(lens, <-replay.looked)
			}
		}
		seen <- lens
	}()
	publishes, err := l.Run(context.Background(), 0, n)
	if err != nil {
		t.Fatal(err)
	}
	lens := <-seen

	attempts := (n + trainEvery - 1) / trainEvery
	if len(lens) != attempts {
		t.Fatalf("%d train attempts, want ceil(%d/%d) = %d", len(lens), n, trainEvery, attempts)
	}
	short := 0
	for k, got := range lens {
		if want := k*trainEvery + 1; got != want {
			t.Errorf("attempt %d found %d transitions, lockstep puts %d there", k, got, want)
		}
		if got < batch {
			short++
		}
	}
	if short != 2 || agent.TrainSteps() != attempts-short {
		t.Errorf("%d updates from %d attempts, %d of them short of a batch; want %d", agent.TrainSteps(), attempts, short, attempts-2)
	}
	if want := agent.TrainSteps() / syncEvery; publishes != want || len(versions) != want {
		t.Errorf("%d publishes (OnPublish saw %d) for %d updates, want %d", publishes, len(versions), agent.TrainSteps(), want)
	}
	for i, v := range versions {
		if v != uint64(i+1) {
			t.Errorf("OnPublish saw versions %v, want 1…%d in order", versions, len(versions))
			break
		}
	}
	if len(afterUpdates) != agent.TrainSteps() || afterUpdates[len(afterUpdates)-1] != agent.TrainSteps() {
		t.Errorf("AfterUpdate saw %v for %d updates", afterUpdates, agent.TrainSteps())
	}
}

// TestLearnerCancelDuringWait: a learner waiting for env steps that never
// come returns ctx.Err() once cancelled, and has joined every goroutine it
// started by the time it returns.
func TestLearnerCancelDuringWait(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l := &Learner{
		Agent:  NewAgent(nn.NavNetSpec(), nn.L3, Options{Seed: 7}),
		Replay: NewReplayShards(1, 16), Board: nn.NewPolicyBoard(),
		// Stop is consulted inside the clock wait: cancel from there.
		Stop: func() bool { cancel(); return false },
	}
	if _, err := l.Run(ctx, 0, 100); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled learner returned %v, want context.Canceled", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d across a cancelled learner", before, after)
	}
}
