// Quickstart: the smallest end-to-end use of the library's composable API.
//
// It prices the hardware (one table), builds a validated experiment Spec
// with functional options, picks a scenario from the catalog, meta-trains a
// small model, deploys it with only the last three FC layers trainable (the
// paper's L3 topology), and reports how far the drone flies between crashes
// before and after online learning.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"dronerl"
	"dronerl/internal/env"
	"dronerl/internal/metrics"
	"dronerl/internal/rl"
)

func main() {
	// 1. Hardware: why online learning must avoid NVM writes.
	m := dronerl.NewHardwareModel()
	lat, en := m.Reductions(dronerl.L4)
	fmt.Printf("hardware model: training the last 4 FC layers instead of the whole net\n")
	fmt.Printf("  cuts per-iteration latency by %.1f%% and energy by %.1f%% (paper: 79.4%%/83.45%%)\n\n", lat, en)

	// 2. A validated Spec: topology, seed and hyper-parameters in one
	// place. Inconsistent combinations fail here, not mid-flight.
	spec, err := dronerl.New(
		dronerl.WithTopology(dronerl.L3),
		dronerl.WithSeed(8),
		dronerl.WithBatchSize(4),
		dronerl.WithEpsilon(0.5, 0.05),
		dronerl.WithEpsDecaySteps(300),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 3. A scenario from the catalog (dronerl.Scenarios lists all).
	world := buildScenario("indoor-apartment", 8)
	fmt.Printf("meta-training on the %s meta-environment...\n", world.Kind)
	snap := dronerl.MetaTrain(world, 800, rl.Options{Seed: 7, BatchSize: 4, EpsDecaySteps: 400})

	// 4. Transfer: download the meta-model into an agent frozen per L3.
	agent, err := spec.Deploy(snap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed to %q: %d of %d weights trainable (L3)\n",
		world.Name, agent.Net.TrainableWeightCount(), agent.Net.WeightCount())

	// 5. Online RL in the deployed world.
	before := rl.Evaluate(world, agent, 400)
	loop := &rl.OnlineLoop{Agent: agent, Worlds: []*env.World{world}, Tracker: rl.TrackerFor(600)}
	if _, err := loop.Run(context.Background(), 600); err != nil {
		log.Fatal(err)
	}
	after := rl.Evaluate(world, agent, 400)

	fmt.Printf("\nsafe flight distance before online RL: %s\n", sfd(before, world.DFrame, 400))
	fmt.Printf("safe flight distance after  online RL: %s\n", sfd(after, world.DFrame, 400))
}

// buildScenario resolves a catalog scenario and builds its world.
func buildScenario(name string, seed int64) *env.World {
	s, ok := env.LookupScenario(name)
	if !ok {
		log.Fatalf("scenario %q not in catalog", name)
	}
	return s.Build(seed)
}

// sfd renders a safe-flight-distance result, crediting the full flown
// distance when the whole evaluation passed without a crash.
func sfd(t *metrics.FlightTracker, dframe float64, steps int) string {
	if t.Crashes() == 0 {
		return fmt.Sprintf(">%.1f m (no crashes in %d steps)", float64(steps)*dframe, steps)
	}
	return fmt.Sprintf("%.1f m (%d crashes)", t.SafeFlightDistance(), t.Crashes())
}
