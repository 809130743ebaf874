package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dronerl/internal/nn"
)

// This file is the unified experiment engine. Flight, ablation and mission
// drivers all describe themselves as an Experiment — an ordered list of
// phases, each a fixed set of independent indexed jobs — and one engine
// executes them: fan the jobs of each phase across a bounded worker pool
// (forEach), stream a progress event per completed run, and stop handing out
// jobs the moment the context is cancelled.
//
// Determinism contract: every job derives its RNG streams from its own
// indices — the flight engine folds each job's (env, topology, repeat)
// indices into the experiment seed — never from worker identity or
// scheduling order, and writes only state it owns. So worker count and
// cancellation cannot change a single bit of a completed experiment
// (TestParallelEngineMatchesSerial), and a cancelled-then-restarted
// experiment reproduces the uninterrupted result.

// Event is one streaming progress report, emitted when a run (one job of
// one phase) completes. Events from parallel schedules arrive in completion
// order, which is nondeterministic; the set of events is not.
type Event struct {
	// Experiment and Phase name the emitting stage.
	Experiment, Phase string
	// Env names the world of the completed run (empty for runs without
	// one, e.g. aggregation).
	Env string
	// Config is the training topology of the run.
	Config nn.Config
	// Run and Of are the job's index and the phase's job count.
	Run, Of int
	// Iteration is the number of environment iterations the run executed.
	Iteration int
	// Reward is the run's headline reward metric (cumulative training
	// reward for learning runs, evaluated SFD for evaluation phases).
	Reward float64
	// Backend names the inference backend of an evaluation run ("" when
	// the run used the float network directly).
	Backend string
	// EnergyMJ, LatencyMS and Cycles are the run's accumulated modeled
	// hardware cost, nonzero only for backends with a cost model.
	EnergyMJ  float64
	LatencyMS float64
	Cycles    int64
	// Publishes counts the policy snapshots the learner published during
	// an online run; nonzero only for multi-actor online phases.
	Publishes int
}

// String renders a compact single-line progress message.
func (e Event) String() string {
	s := fmt.Sprintf("%s/%s %d/%d", e.Experiment, e.Phase, e.Run+1, e.Of)
	if e.Env != "" {
		s += fmt.Sprintf(" %s under %v", e.Env, e.Config)
	}
	if e.Iteration > 0 {
		s += fmt.Sprintf(" (%d iters, reward %.3f)", e.Iteration, e.Reward)
	}
	if e.Backend != "" {
		s += fmt.Sprintf(" [%s]", e.Backend)
	}
	if e.EnergyMJ > 0 {
		s += fmt.Sprintf(" %.3f mJ / %.3f ms", e.EnergyMJ, e.LatencyMS)
	}
	if e.Publishes > 0 {
		s += fmt.Sprintf(" (%d policy publishes)", e.Publishes)
	}
	return s
}

// ProgressFunc receives streaming events. The engine serializes calls, so
// implementations need no locking of their own.
type ProgressFunc func(Event)

// runnerOpts collects the Run options.
type runnerOpts struct {
	workers  int
	progress ProgressFunc
}

// RunOption configures one Run invocation.
type RunOption func(*runnerOpts)

// WithWorkers bounds the engine's concurrency: 0 selects GOMAXPROCS, 1
// forces the serial schedule. Results are bit-identical for every choice.
func WithWorkers(n int) RunOption {
	return func(o *runnerOpts) { o.workers = n }
}

// WithProgress streams per-run events to fn as the experiment executes.
func WithProgress(fn ProgressFunc) RunOption {
	return func(o *runnerOpts) { o.progress = fn }
}

// RunContext is handed to every job; it carries the cancellation context
// and the serialized event sink.
type RunContext struct {
	ctx   context.Context
	emit  func(Event)
	exp   string
	phase string
	jobs  int
}

// Context returns the run's cancellation context (for jobs that want to
// observe cancellation below the run boundary).
func (rc *RunContext) Context() context.Context { return rc.ctx }

// Emit streams a progress event. The engine fills in the experiment, phase
// and job-count fields; jobs only set what they know (Env, Config, Run,
// Iteration, Reward, backend cost). A job may pre-set Phase to report a
// sub-stage of its work under its own label (the flight driver labels its
// in-job greedy evaluations "evaluate"); an empty Phase gets the engine
// phase's name. Emit is safe to call from parallel jobs.
func (rc *RunContext) Emit(ev Event) {
	if rc.emit == nil {
		return
	}
	ev.Experiment, ev.Of = rc.exp, rc.jobs
	if ev.Phase == "" {
		ev.Phase = rc.phase
	}
	rc.emit(ev)
}

// Phase is a set of independent indexed jobs executed by the engine. Phases
// of an experiment run in order with a barrier between them; jobs within a
// phase may run concurrently and must follow the pool's determinism
// contract (derive RNGs from the job index, write only owned state).
type Phase struct {
	// Name labels the phase in progress events.
	Name string
	// Jobs is the number of independent jobs.
	Jobs int
	// Job runs job i. Errors abort the experiment after the phase drains,
	// reported in lowest-index order like a serial loop.
	Job func(rc *RunContext, i int) error
}

// Experiment is a unit of work the engine can execute: a name for progress
// reporting plus an ordered phase list. Implementations accumulate their
// results internally and expose them through concrete accessors (e.g.
// FlightExperiment.Report) once Run returns nil.
type Experiment interface {
	Name() string
	Phases() []Phase
}

// Run executes an experiment: each phase's jobs fan across one worker pool,
// phases separated by barriers. Cancelling ctx stops the engine within one
// run boundary — in-flight jobs finish, nothing new starts, every worker
// goroutine exits before Run returns — and Run reports ctx.Err(). Because
// results of a cancelled experiment are discarded, re-running the same
// experiment reproduces the uninterrupted output bit for bit.
func Run(ctx context.Context, exp Experiment, opts ...RunOption) error {
	var ro runnerOpts
	for _, opt := range opts {
		opt(&ro)
	}
	// Serialize the progress stream so ProgressFunc implementations are
	// free of locking concerns.
	var emit func(Event)
	if ro.progress != nil {
		var mu sync.Mutex
		emit = func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			ro.progress(ev)
		}
	}

	for _, ph := range exp.Phases() {
		rc := &RunContext{ctx: ctx, emit: emit, exp: exp.Name(), phase: ph.Name, jobs: ph.Jobs}
		err := forEach(ctx, ro.workers, ph.Jobs, func(i int) error {
			return ph.Job(rc, i)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// forEach runs job(0) .. job(n-1) on at most workers goroutines (0 selects
// GOMAXPROCS, 1 the serial loop), handing indices out in order from a shared
// counter, and returns once every started job has returned. Once ctx is done
// no new job starts, in-flight ones finish, and forEach reports ctx.Err() —
// a cancelled phase's job errors are partial. Otherwise it reports the error
// of the lowest-indexed job that failed, as the serial loop would have; every
// job runs regardless, keeping the schedule that of the error-free case.
func forEach(ctx context.Context, workers, n int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			errs[i] = job(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					errs[i] = job(i)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
