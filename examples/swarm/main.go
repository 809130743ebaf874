// Swarm: a multi-drone mission sharing one policy.
//
// One policy is meta-trained and adapted online in a generated world, then
// a fleet of drone clones flies it simultaneously: every tick the whole
// swarm's depth images are stacked into a single batch, so the policy costs
// one GEMM per layer for the entire fleet — the same batching economics the
// paper's PE array exploits. Per-drone metrics are merged in index order
// and the mission is deterministic for a fixed seed.
//
//	go run ./examples/swarm
package main

import (
	"context"
	"fmt"
	"log"

	"dronerl"
)

func main() {
	swarm, err := dronerl.Swarm(
		dronerl.WithSeed(11),
		dronerl.WithMetaIters(150), dronerl.WithOnlineIters(150), dronerl.WithEvalSteps(120),
		dronerl.WithGenerated(dronerl.GenSpec{Kind: "outdoor", Corridor: 4.5, Density: 1}),
		dronerl.WithSwarm(5),
	)
	if err != nil {
		log.Fatal(err)
	}

	err = dronerl.Run(context.Background(), swarm, dronerl.WithProgress(func(ev dronerl.Event) {
		fmt.Printf("  [%s] %s: reward %.3f\n", ev.Phase, ev.Env, ev.Reward)
	}))
	if err != nil {
		log.Fatal(err)
	}

	rep := swarm.Report()
	fmt.Printf("\nmission over %q, %d drones x %d steps:\n", rep.Env, len(rep.Drones), rep.Drones[0].Steps)
	for _, d := range rep.Drones {
		fmt.Printf("  drone %d: %5.1f m flown, %d crashes, SFD %5.1f m\n",
			d.Drone, d.Distance, d.Crashes, d.SFD)
	}
	fmt.Printf("fleet: %.1f m total, %d crashes, mean SFD %.1f m, mean reward %.3f\n",
		rep.TotalDistance, rep.TotalCrashes, rep.MeanSFD, rep.MeanReward)
}
