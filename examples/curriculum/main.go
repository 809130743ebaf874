// Curriculum: staged training over procedurally generated worlds.
//
// Instead of adapting to one fixed test world, the agent climbs a ladder of
// generated scenarios — wide corridors first, then narrower, denser and
// gustier ones — and is promoted only when its moving-average reward and
// safe flight distance clear the stage's thresholds. With a fixed seed the
// whole promotion trace is reproducible run to run.
//
//	go run ./examples/curriculum
package main

import (
	"context"
	"fmt"
	"log"

	"dronerl"
)

func main() {
	// A custom two-stage ladder; dronerl.DefaultCurriculum("indoor") gives
	// the stock three-stage one. Every knob of a GenSpec that is left zero
	// picks a kind-appropriate default.
	cur, err := dronerl.Curriculum(
		dronerl.WithSeed(8),
		dronerl.WithMetaIters(150), dronerl.WithOnlineIters(150),
		dronerl.WithCurriculum(
			dronerl.Stage{
				Name: "roomy",
				Spec: dronerl.GenSpec{Kind: "indoor", Corridor: 1.3, Density: 2.5},
			},
			dronerl.Stage{
				Name:          "cluttered",
				Spec:          dronerl.GenSpec{Kind: "indoor", Corridor: 0.9, Density: 5, BoxFrac: 0.3},
				PromoteReward: 0.1, // modest bar for an example-sized budget
			},
		),
	)
	if err != nil {
		log.Fatal(err)
	}
	err = dronerl.Run(context.Background(), cur, dronerl.WithProgress(func(ev dronerl.Event) {
		fmt.Printf("  [%s] %s: reward %.3f\n", ev.Phase, ev.Env, ev.Reward)
	}))
	if err != nil {
		log.Fatal(err)
	}

	rep := cur.Report()
	fmt.Println("\npromotion trace:")
	for _, rec := range rep.Trace {
		fmt.Printf("  %-10s attempt %d: reward %.3f, SFD %.1f m, promoted=%v\n",
			rec.Stage, rec.Attempt+1, rec.Reward, rec.SFD, rec.Promoted)
	}
	if rep.Completed {
		fmt.Println("curriculum completed: every stage promoted")
	} else {
		fmt.Printf("curriculum stopped at stage %q\n", rep.FailedStage)
	}
}
