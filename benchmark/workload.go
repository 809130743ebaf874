package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"
)

// config is one invocation's run shape. Everything that sizes work is here so
// a comparison of two commits runs identical operation counts.
type config struct {
	seed    int64
	seconds float64 // measuring budget of one untraced workload run
	scale   float64 // multiplies every operation count (the smoke test runs 0.01)
	procs   int     // GOMAXPROCS = min(nproc, 4)
	clients int     // closed-loop client goroutines = 4 x procs (see README: noise findings)
}

// setupReps is how many times a workload is set up from scratch in one run:
// a set-up lasts 0.15 s, so ten of them give setup_s the same chance of an
// undisturbed sample that the segments give the other metrics. minSegments
// is the floor on measured segments whatever -seconds says.
const (
	setupReps   = 10
	minSegments = 3
)

// count scales an operation count, never below one.
func (c config) count(n int) int {
	return max(1, int(math.Round(float64(n)*c.scale)))
}

// segment is one measured block of a fixed operation count.
type segment struct {
	ops    int           // operations attempted
	failed int           // operations refused, errored or answered wrongly
	wall   time.Duration // first send to last verified reply / Run returning
	p50ms  float64       // per-operation latency median (serve) or per-actor frame period (online)
	p99ms  float64       // serve only, advisory
}

// instance is a workload set up and ready to be measured.
type instance interface {
	// prepare generates the inputs and their expected outputs from the seed.
	// It is the benchmark's own work, not the program's, so setup_s leaves
	// it out.
	prepare() error
	// segment runs the workload's fixed operation count once and verifies
	// every output it produced.
	segment() (segment, error)
	// finish runs the checks that need the whole run (determinism twins,
	// end-of-run counters) and returns how many operations they fail.
	finish() (failed int, err error)
	close() error
}

// workload is one named traffic mix; see BENCHMARK.json for why each is here.
type workload struct {
	name string
	// setup builds the program side from nothing: the shared meta-trained
	// snapshot, then the server or agent. It is what setup_s times.
	setup func(c config) (instance, error)
}

// serveKinds and onlineKinds are the seven workloads' shapes. Segment sizes
// aim at 0.2-0.5 s on two cores: short enough that a run has tens of them
// and some escape the host's slow seconds (see fastQuartile), long enough
// that the 10 ms jiffies of the steal correction are a percent or two, and
// to hold several reloads or a few dozen weight updates.
var serveKinds = map[string]serveKind{
	"serve-http-float":  {backend: "float", http: true, segOps: 800},
	"serve-fleet-quant": {backend: "quant", segOps: 4000},
	"serve-http-reload": {backend: "quant", http: true, reload: true, segOps: 1200},
}

var onlineKinds = map[string]onlineKind{
	"online-l3":       {cfg: nn.L3, segSteps: 1024, twinSteps: 256},
	"online-e2e":      {cfg: nn.E2E, segSteps: 256, twinSteps: 128},
	"online-l3-quant": {cfg: nn.L3, actors: 1, trainBackend: "quant-train", segSteps: 96, twinSteps: 64},
	"dist-l3":         {cfg: nn.L3, dist: true, segSteps: 512},
}

func workloads() []workload {
	var ws []workload
	for _, name := range []string{"serve-http-float", "serve-fleet-quant", "serve-http-reload",
		"online-l3", "online-e2e", "online-l3-quant", "dist-l3"} {
		if k, ok := serveKinds[name]; ok {
			ws = append(ws, workload{name, func(c config) (instance, error) { return setupServe(c, k, metaSnapshot(c)) }})
		} else {
			k := onlineKinds[name]
			ws = append(ws, workload{name, func(c config) (instance, error) { return setupOnline(c, k, metaSnapshot(c)) }})
		}
	}
	return ws
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metaIters is the length of the shared meta-training run every workload's
// set-up pays before it can deploy or serve a policy.
const metaIters = 200

// metaSnapshot trains the policy every workload starts from: end-to-end RL on
// the indoor meta-environment, the paper's pre-deployment step.
func metaSnapshot(c config) *nn.Snapshot {
	snap, _ := transfer.MetaTrain(env.IndoorMeta(c.seed), nn.NavNetSpec(), c.count(metaIters),
		rl.Options{Seed: c.seed, BatchSize: 4, EpsDecaySteps: 100})
	return snap
}

// outcome is what one untraced run of one workload measured.
type outcome struct {
	workload  string
	setup     []float64 // seconds, one per from-scratch set-up
	segments  []segment
	attempted int
	failed    int
	errs      []string // verification failures, in words
	stolen    float64  // share of the CPU time asked for that the host withheld while measuring
}

// runUntraced measures one workload: set up setupReps times, warm up with one
// discarded segment, then run fixed-count segments until the time budget is
// spent (never fewer than minSegments).
func runUntraced(w workload, c config) outcome {
	out := outcome{workload: w.name}
	fail := func(err error) outcome {
		out.errs = append(out.errs, err.Error())
		return out
	}
	var inst instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return fail(err)
			}
		}
		runtime.GC() // a previous set-up's garbage is not this set-up's cost
		h0, t0 := readHostCPU(), time.Now()
		var err error
		if inst, err = w.setup(c); err != nil {
			return fail(err)
		}
		out.setup = append(out.setup, time.Since(t0).Seconds()*readHostCPU().given(h0))
	}
	defer inst.close()

	if err := inst.prepare(); err != nil {
		return fail(err)
	}
	if _, err := inst.segment(); err != nil { // warm-up: caches, arenas, keep-alive connections
		return fail(err)
	}
	start, hostStart := time.Now(), readHostCPU()
	for len(out.segments) < minSegments || time.Since(start).Seconds() < c.seconds {
		h0 := readHostCPU()
		s, err := inst.segment()
		if err != nil {
			return fail(err)
		}
		// Time the hypervisor took from this VM is the neighbours', not the
		// program's: take it out of the segment (see README, noise findings).
		given := readHostCPU().given(h0)
		s.wall = time.Duration(float64(s.wall) * given)
		s.p50ms *= given
		out.segments = append(out.segments, s)
		out.attempted += s.ops
		out.failed += s.failed
	}
	out.stolen = 1 - readHostCPU().given(hostStart)
	failed, err := inst.finish()
	out.failed += failed
	if err != nil {
		out.errs = append(out.errs, err.Error())
	}
	if out.failed > 0 && len(out.errs) == 0 {
		out.errs = append(out.errs, fmt.Sprintf("%d of %d operations failed", out.failed, out.attempted))
	}
	return out
}

// endToEnd turns an outcome into the end-to-end metrics of BENCHMARK.json.
// frames_per_s is act_qps on the serving workloads and steps_per_s on the
// learning ones: a verified frame answered, or acted on and learned from.
// Each is the fast quartile of its steal-corrected samples (see fastQuartile).
func (o outcome) endToEnd() map[string]stat {
	var fps, p50 []float64
	for _, s := range o.segments {
		fps = append(fps, float64(s.ops-s.failed)/s.wall.Seconds())
		p50 = append(p50, s.p50ms)
	}
	return map[string]stat{
		"setup_s":      fastQuartile(o.setup, false),
		"frames_per_s": fastQuartile(fps, true),
		"frame_p50_ms": fastQuartile(p50, false),
	}
}
