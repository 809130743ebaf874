// Mission: the co-design payoff end to end, driven through the unified
// experiment engine. The same transferred policy flies the indoor apartment
// under each training topology while every camera frame is charged against
// a fixed compute-energy budget using the hardware model. The
// L-configurations process several times more frames — and therefore fly
// several times longer missions — than the E2E baseline, which is the
// paper's bottom line expressed in mission terms.
//
//	go run ./examples/mission
package main

import (
	"context"
	"fmt"
	"log"

	"dronerl"
	"dronerl/internal/report"
)

func main() {
	const budgetJ = 60.0 // compute-energy slice of a small drone battery
	fmt.Printf("flying one mission per topology with a %.0f J compute budget...\n\n", budgetJ)

	exp, err := dronerl.OnlineMissions(budgetJ, dronerl.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	err = dronerl.Run(context.Background(), exp,
		dronerl.WithProgress(func(ev dronerl.Event) {
			fmt.Printf("  %s\n", ev)
		}))
	if err != nil {
		log.Fatal(err)
	}
	results := exp.Results()

	t := report.New("co-design missions (indoor apartment, online learning)",
		"Config", "frames", "distance m", "crashes", "energy J", "wall-clock s", "fps")
	var e2eFrames int
	for _, r := range results {
		t.Addf(r.Config.String(), r.Frames, r.DistanceM, r.Crashes, r.EnergySpentJ, r.WallClockS, r.FPS)
		if r.Config.String() == "E2E" {
			e2eFrames = r.Frames
		}
	}
	fmt.Println(t.String())
	for _, r := range results {
		if r.Config.String() != "E2E" && e2eFrames > 0 {
			fmt.Printf("%s flies %.1fx the E2E frames on the same battery\n",
				r.Config, float64(r.Frames)/float64(e2eFrames))
		}
	}
}
