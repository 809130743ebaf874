// Command droneflight runs a single transfer-learning + online-RL flight
// experiment in one scenario and reports the learning curves and safe
// flight distance.
//
// Usage:
//
//	droneflight [-env <scenario>] [-config L2|L3|L4|E2E]
//	            [-meta 1000] [-online 800] [-eval 600] [-seed 1] [-map]
//	droneflight -curriculum [-env <scenario>] ...
//	droneflight -swarm N [-env <scenario>] ...
//	droneflight -list
//
// The -env flag names any scenario from the catalog (droneflight -list
// prints it); the short aliases apartment, house, forest and town select
// the paper's four test environments, and gen-* names select procedurally
// generated scenario families. -curriculum trains through the staged
// ladder matching the scenario's kind instead of a single world, and
// -swarm N flies N policy-sharing drone clones after online adaptation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dronerl/internal/core"
	"dronerl/internal/env"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/report"
	"dronerl/internal/rl"
	"dronerl/internal/scen"
	"dronerl/internal/transfer"

	// Linked for its backend registrations, so -backend can name the
	// quant and systolic substrates.
	_ "dronerl/internal/hw"
)

// aliases maps the historical short names (with their historical seed
// offsets) to catalog scenarios.
var aliases = map[string]string{
	"apartment": "indoor-apartment",
	"house":     "indoor-house",
	"forest":    "outdoor-forest",
	"town":      "outdoor-town",
}

// aliasSeedOffset reproduces the pre-registry seed derivation for the four
// short aliases, so `droneflight -env apartment` flies the exact world it
// always has.
var aliasSeedOffset = map[string]int64{
	"indoor-apartment": 1, "indoor-house": 2, "outdoor-forest": 3, "outdoor-town": 4,
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// unreadFlags lists, per mode, the flags that mode does not read and why.
// run refuses them before any training, as it refuses every flag but -list
// itself under -list, so a flag never silently changes nothing.
var unreadFlags = map[string]map[string]string{
	"curriculum": {
		"eval":    "the curriculum has no evaluation phase",
		"backend": "the curriculum has no evaluation phase",
		"save":    "the curriculum does not write its meta-model",
		"load":    "the curriculum meta-trains its own model",
	},
	"swarm": {
		"save": "the swarm does not write its meta-model",
		"load": "the swarm meta-trains its own model",
	},
}

// run is the whole command: it prints the experiment's tables to stdout and
// returns the exit status — 2 with usage for a bad flag, a flag the mode
// does not read, an unknown -config, -backend, -train-backend or -env, or
// an impossible -actors / -swarm combination; 1 for a run that fails (or a
// curriculum that does not complete).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("droneflight", flag.ContinueOnError)
	fs.SetOutput(stderr)
	envName := fs.String("env", "apartment", "scenario name (see -list) or a short alias")
	cfgName := fs.String("config", "L3", "L2, L3, L4 or E2E")
	metaIters := fs.Int("meta", 1000, "meta-environment training iterations")
	onlineIters := fs.Int("online", 800, "online RL iterations in the test environment")
	evalSteps := fs.Int("eval", 600, "greedy evaluation steps")
	seed := fs.Int64("seed", 1, "experiment seed")
	backend := fs.String("backend", "", "inference backend for the greedy evaluation: "+
		strings.Join(nn.BackendNames(), ", ")+" (default: the direct float path)")
	trainBackend := fs.String("train-backend", "", "trainable backend for the online phase "+
		"(quant-train runs every TD update in 16-bit fixed point with stochastic rounding; "+
		"default: the float training path)")
	actors := fs.Int("actors", 1, "concurrent actors for the online-learning phase "+
		"(1 = the deterministic serial schedule)")
	curriculum := fs.Bool("curriculum", false, "train through the staged curriculum ladder "+
		"matching the scenario's kind instead of a single world")
	swarm := fs.Int("swarm", 0, "fly N policy-sharing drone clones after online adaptation "+
		"(0 = single-drone experiment)")
	showMap := fs.Bool("map", false, "print the environment map")
	list := fs.Bool("list", false, "list the scenario catalog and exit")
	saveModel := fs.String("save", "", "write the meta-model snapshot to this file after meta-training")
	loadModel := fs.String("load", "", "skip meta-training and load a snapshot from this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, err)
		return code
	}
	usage := func(err error) int {
		fail(2, err)
		fs.Usage()
		return 2
	}

	// Validate name-shaped flags before any training runs, so a typo fails
	// in milliseconds instead of after minutes of meta-training.
	var extra []rl.Option
	if *backend != "" {
		extra = append(extra, rl.WithEvalBackend(*backend))
	}
	if *trainBackend != "" {
		extra = append(extra, rl.WithTrainBackend(*trainBackend))
	}
	if *actors != 1 {
		extra = append(extra, rl.WithActors(*actors))
	}
	if _, err := rl.NewOptions(extra...); err != nil {
		return usage(err)
	}
	if *swarm < 0 {
		return usage(fmt.Errorf("-swarm %d: need at least one drone", *swarm))
	}
	if *curriculum && *swarm > 0 {
		return usage(errors.New("-curriculum and -swarm are separate modes; pick one"))
	}
	mode := "flight"
	switch {
	case *list:
		mode = "list"
	case *curriculum:
		mode = "curriculum"
	case *swarm > 0:
		mode = "swarm"
	}
	var unread error
	fs.Visit(func(f *flag.Flag) {
		if unread != nil || f.Name == mode {
			return
		}
		if mode == "list" {
			unread = fmt.Errorf("-%s is not read by -list, which prints the catalog and exits", f.Name)
		} else if why, ok := unreadFlags[mode][f.Name]; ok {
			unread = fmt.Errorf("-%s is not read by -%s: %s", f.Name, mode, why)
		}
	})
	if unread != nil {
		return usage(unread)
	}

	if mode == "list" {
		t := report.New("scenario catalog", "name", "kind", "description")
		for _, s := range env.Scenarios() {
			t.Add(s.Name, s.Kind, s.Description)
		}
		fmt.Fprintln(stdout, t.String())
		return 0
	}

	key := resolveName(*envName)
	world := pickEnv(*envName, *seed)
	if world == nil {
		return usage(fmt.Errorf("unknown scenario %q: registered scenarios are %s",
			*envName, strings.Join(env.ScenarioNames(), ", ")))
	}
	cfg, err := nn.ParseConfig(*cfgName)
	if err != nil {
		return usage(err)
	}
	if *showMap {
		fmt.Fprintln(stdout, world.Render(72, 24))
	}

	switch mode {
	case "curriculum":
		return runCurriculum(ctx, stdout, stderr, world.Kind, cfg, *seed, *metaIters, *onlineIters, extra)
	case "swarm":
		return runSwarm(ctx, stdout, stderr, key, *swarm, cfg, *seed, *metaIters, *onlineIters, *evalSteps, extra)
	}

	spec := nn.NavNetSpec()
	var snap *nn.Snapshot
	if *loadModel != "" {
		f, err := os.Open(*loadModel)
		if err != nil {
			return fail(1, err)
		}
		snap, err = nn.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "loaded meta-model %q from %s\n", snap.Arch, *loadModel)
	} else {
		meta := env.MetaFor(world, *seed+1000)
		fmt.Fprintf(stdout, "meta-training E2E on %q for %d iterations...\n", meta.Name, *metaIters)
		metaOpts, err := transfer.MetaOptions(*seed, *metaIters)
		if err != nil {
			return fail(1, err)
		}
		var metaTracker *metrics.FlightTracker
		snap, metaTracker = transfer.MetaTrain(meta, spec, *metaIters, metaOpts)
		fmt.Fprintf(stdout, "meta model: cumulative reward %.3f, SFD %.1f m over %d crashes\n",
			metaTracker.CumulativeReward(), metaTracker.SafeFlightDistance(), metaTracker.Crashes())
	}
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			return fail(1, err)
		}
		if err := snap.Encode(f); err != nil {
			f.Close()
			return fail(1, err)
		}
		if err := f.Close(); err != nil {
			return fail(1, err)
		}
		fmt.Fprintf(stdout, "meta-model written to %s\n", *saveModel)
	}

	fmt.Fprintf(stdout, "deploying to %q under %v (%d/%d trainable weights) and learning online...\n",
		world.Name, cfg, spec.TrainedWeights(cfg), spec.TotalWeights())
	// Not transfer.OnlineOptions: this online phase keeps the default
	// learning rate 0.005, with which its printed curves and
	// testdata/flight.golden were recorded.
	opts, err := rl.Options{
		Seed: *seed + 1, BatchSize: 4, EpsStart: 0.5, EpsDecaySteps: *onlineIters / 2,
	}.With(extra...)
	if err != nil {
		return fail(1, err)
	}
	res, err := transfer.RunOnline(ctx, snap, world, spec, cfg, *onlineIters, *evalSteps, opts)
	if err != nil {
		return fail(1, err)
	}

	t := report.New("online learning ("+world.Name+", "+cfg.String()+")", "metric", "value")
	t.Add("cumulative reward", report.Num(res.Training.CumulativeReward()))
	t.Add("reward curve", report.Sparkline(res.Training.RewardSeries(), 48))
	t.Add("return", report.Num(res.Training.Return()))
	t.Add("return curve", report.Sparkline(res.Training.ReturnSeries(), 48))
	t.Add("training crashes", fmt.Sprint(res.Training.Crashes()))
	if res.Actors > 1 {
		t.Add("actors", fmt.Sprint(res.Actors))
		t.Add("policy publishes", fmt.Sprint(res.Publishes))
		t.Add("publish energy (mJ)", report.Num(res.PublishMJ))
	}
	if res.TrainBackend != "" {
		t.Add("train backend", res.TrainBackend)
		t.Add("train energy (mJ)", report.Num(res.TrainCost.EnergyMJ))
		t.Add("train latency (ms)", report.Num(res.TrainCost.LatencyMS))
	}
	t.Add("eval SFD (m)", report.Num(res.Eval.SafeFlightDistance()))
	t.Add("eval crashes", fmt.Sprint(res.Eval.Crashes()))
	if res.Backend != "" {
		t.Add("eval backend", res.Backend)
		if res.EvalCost.Inferences > 0 {
			t.Add("eval energy (mJ)", report.Num(res.EvalCost.EnergyMJ))
			t.Add("eval latency (ms)", report.Num(res.EvalCost.LatencyMS))
		}
	}
	fmt.Fprintln(stdout, t.String())
	return 0
}

// runCurriculum trains through the staged ladder for the scenario's kind
// with the agent options opts and prints the promotion trace.
func runCurriculum(ctx context.Context, stdout, stderr io.Writer, kind string, cfg nn.Config,
	seed int64, metaIters, onlineIters int, opts []rl.Option) int {
	c, err := scen.NewCurriculum(scen.DefaultLadder(kind), cfg, seed, metaIters, onlineIters)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := c.SetAgentOverrides(opts...); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "curriculum: %d %s stages under %v (meta %d, per-stage %d iterations)\n",
		len(c.Stages()), kind, cfg, metaIters, onlineIters)
	if err := core.Run(ctx, c, core.WithProgress(func(ev core.Event) {
		fmt.Fprintf(stdout, "  [%s] %s: reward %.3f after %d iterations\n",
			ev.Phase, ev.Env, ev.Reward, ev.Iteration)
	})); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep := c.Report()
	t := report.New("curriculum ("+kind+", "+cfg.String()+")",
		"stage", "attempt", "iters", "reward", "SFD (m)", "promoted")
	for _, rec := range rep.Trace {
		t.Add(rec.Stage, fmt.Sprint(rec.Attempt+1), fmt.Sprint(rec.Iters),
			report.Num(rec.Reward), report.Num(rec.SFD), fmt.Sprint(rec.Promoted))
	}
	fmt.Fprintln(stdout, t.String())
	if rep.TrainBackend != "" {
		fmt.Fprintf(stdout, "train backend %s\n", rep.TrainBackend)
	}
	if !rep.Completed {
		fmt.Fprintf(stdout, "curriculum stopped at stage %q\n", rep.FailedStage)
		return 1
	}
	fmt.Fprintln(stdout, "curriculum completed: every stage promoted")
	return 0
}

// runSwarm meta-trains and adapts one policy in the scenario with the agent
// options opts, then flies a fleet of clones sharing it and prints the
// per-drone mission stats.
func runSwarm(ctx context.Context, stdout, stderr io.Writer, scenario string, drones int,
	cfg nn.Config, seed int64, metaIters, onlineIters, missionSteps int, opts []rl.Option) int {

	e, err := scen.NewSwarmExperiment(scenario, drones, cfg, seed, metaIters, onlineIters, missionSteps)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := e.SetAgentOverrides(opts...); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "swarm: %d drones in %q under %v (meta %d, online %d, mission %d steps)\n",
		drones, scenario, cfg, metaIters, onlineIters, missionSteps)
	if err := core.Run(ctx, e, core.WithProgress(func(ev core.Event) {
		fmt.Fprintf(stdout, "  [%s] %s: reward %.3f after %d iterations\n",
			ev.Phase, ev.Env, ev.Reward, ev.Iteration)
	})); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep := e.Report()
	t := report.New("swarm mission ("+rep.Env+", "+cfg.String()+")",
		"drone", "steps", "crashes", "mean reward", "distance (m)", "SFD (m)")
	for _, d := range rep.Drones {
		t.Add(fmt.Sprint(d.Drone), fmt.Sprint(d.Steps), fmt.Sprint(d.Crashes),
			report.Num(d.MeanReward), report.Num(d.Distance), report.Num(d.SFD))
	}
	t.Add("fleet", fmt.Sprint(rep.TotalSteps), fmt.Sprint(rep.TotalCrashes),
		report.Num(rep.MeanReward), report.Num(rep.TotalDistance), report.Num(rep.MeanSFD))
	fmt.Fprintln(stdout, t.String())
	if rep.TrainBackend != "" {
		fmt.Fprintf(stdout, "train backend %s\n", rep.TrainBackend)
	}
	if rep.Backend != "" {
		fmt.Fprintf(stdout, "eval backend %s: %s mJ over %d inferences\n",
			rep.Backend, report.Num(rep.EvalCost.EnergyMJ), rep.EvalCost.Inferences)
	}
	return 0
}

// resolveName lowers a scenario name and expands the historical short
// aliases to their catalog keys.
func resolveName(name string) string {
	key := strings.ToLower(name)
	if full, ok := aliases[key]; ok {
		key = full
	}
	return key
}

// pickEnv resolves a scenario by catalog name or short alias and builds its
// world. Alias lookups keep the historical per-world seed offsets.
func pickEnv(name string, seed int64) *env.World {
	key := resolveName(name)
	s, ok := env.LookupScenario(key)
	if !ok {
		return nil
	}
	return s.Build(seed + aliasSeedOffset[key])
}
