// Outdoor navigation: the transfer-gap demonstration. The same outdoor
// meta-model is deployed to the forest (obstacles shaped like the
// meta-world's) and to the town (box-shaped buildings the meta-model never
// saw). The town shows the larger degradation under frozen-feature
// topologies — the effect the paper reports in Fig. 11 and attributes to
// "large disparities [between] the meta-environment and test environments".
//
// With the composable API this is just a two-scenario flight experiment:
// the engine notices both scenarios share the outdoor kind, trains the
// meta-model once, and sweeps every topology in both worlds.
//
//	go run ./examples/outdoor_navigation
package main

import (
	"context"
	"fmt"
	"log"

	"dronerl"
	"dronerl/internal/report"
)

func main() {
	exp, err := dronerl.Flight(
		dronerl.WithSeed(21),
		dronerl.WithScenarios("outdoor-forest", "outdoor-town"),
		dronerl.WithMetaIters(1200),
		dronerl.WithOnlineIters(800),
		dronerl.WithEvalSteps(600),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training one outdoor meta-model and deploying to forest and town...")
	if err := dronerl.Run(context.Background(), exp); err != nil {
		log.Fatal(err)
	}

	t := report.New("outdoor transfer gap (L2 = most frozen, E2E = fully plastic)",
		"Environment", "Config", "eval SFD m", "normalized vs E2E")
	for _, er := range exp.Report().Envs {
		for _, run := range er.Runs {
			t.Addf(er.Env, run.Config.String(), run.SFD, run.NormalizedSFD)
		}
	}
	fmt.Println(t.String())

	for _, er := range exp.Report().Envs {
		fmt.Printf("%s: worst frozen-topology degradation vs E2E: %.1f%%\n",
			er.Env, er.WorstLiDegradationPct)
	}
}
