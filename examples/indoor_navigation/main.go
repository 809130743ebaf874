// Indoor navigation: compares all four training topologies (L2, L3, L4,
// E2E) in the indoor apartment — the paper's tightest environment
// (d_min = 0.7 m) — starting from one shared indoor meta-model. This is a
// single-environment slice of Fig. 10/11, expressed as a one-scenario
// flight experiment on the composable API: the engine meta-trains the
// indoor model, fans the per-topology online runs across all cores, and
// streams per-run progress while it works.
//
//	go run ./examples/indoor_navigation
package main

import (
	"context"
	"fmt"
	"log"

	"dronerl"
	"dronerl/internal/nn"
	"dronerl/internal/report"
)

func main() {
	exp, err := dronerl.Flight(
		dronerl.WithSeed(11),
		dronerl.WithScenarios("indoor-apartment"),
		dronerl.WithMetaIters(1200),
		dronerl.WithOnlineIters(800),
		dronerl.WithEvalSteps(600),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("flying the indoor apartment under every topology...")
	err = dronerl.Run(context.Background(), exp,
		dronerl.WithProgress(func(ev dronerl.Event) {
			if ev.Phase == "meta-train" {
				fmt.Printf("  meta-model trained on %q (reward %.3f)\n", ev.Env, ev.Reward)
			}
		}))
	if err != nil {
		log.Fatal(err)
	}

	er := exp.Report().Envs[0]
	t := report.New("indoor apartment: topology comparison",
		"Config", "reward curve", "eval SFD m", "normalized vs E2E", "crashes")
	for _, run := range er.Runs {
		t.Addf(run.Config.String(),
			report.Sparkline(run.RewardSeries, 36),
			run.SFD, run.NormalizedSFD, run.Crashes)
	}
	fmt.Println(t.String())

	fmt.Println("normalized SFD vs E2E (Fig. 11 view):")
	for _, cfg := range []nn.Config{nn.L2, nn.L3, nn.L4} {
		if run, ok := er.Run(cfg); ok {
			fmt.Printf("  %-3s %.3f\n", cfg, run.NormalizedSFD)
		}
	}
}
