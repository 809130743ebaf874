// Policy refresh: the deployment-side half of the actor/learner pipeline.
// A learner keeps training a navigation policy online and publishes the
// trainable weights through an nn.PolicyBoard — the atomic double-buffered
// snapshot store of the async pipeline. A separately deployed drone flies
// greedily on the compiled 16-bit quant backend (the PE datapath's numeric
// behaviour) and refreshes its policy between missions with
// rl.Agent.AdoptPolicy: the adoption installs the published weights AND
// rebuilds the compiled backend over them — the "backend hand-off on swap".
// Without the rebuild the drone would keep flying the stale compiled policy
// no matter how many snapshots it adopted.
//
//	go run ./examples/policy_refresh
package main

import (
	"context"
	"fmt"
	"log"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/report"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"

	// Linked for its backend registration: the deployed drone flies on the
	// 16-bit integer engine.
	_ "dronerl/internal/hw"
)

func main() {
	const (
		metaIters  = 300 // meta-environment pre-training
		chunkIters = 400 // learner training between publishes
		rounds     = 4   // publish/adopt/fly cycles
		flySteps   = 300 // greedy mission length per round
	)
	spec := nn.NavNetSpec()

	// Pre-train a transferable meta-model and deploy it twice: once as the
	// learner (keeps training online, float reference) and once as the
	// deployed drone (flies greedily on the quant backend, frozen L3 tail).
	metaOpts, err := transfer.MetaOptions(1, metaIters)
	if err != nil {
		log.Fatal(err)
	}
	learnOpts, err := transfer.OnlineOptions(2, rounds*chunkIters)
	if err != nil {
		log.Fatal(err)
	}
	snap, _ := transfer.MetaTrain(env.IndoorMeta(1), spec, metaIters, metaOpts)
	trainWorld := env.IndoorApartment(2)
	learner, err := transfer.Deploy(snap, spec, nn.L3, learnOpts)
	if err != nil {
		log.Fatal(err)
	}
	droneWorld := env.IndoorApartment(3)
	drone, err := transfer.Deploy(snap, spec, nn.L3, rl.Options{
		Seed: 3, EvalBackend: "quant",
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := drone.HandOff(); err != nil {
		log.Fatal(err)
	}

	board := nn.NewPolicyBoard()
	t := report.New("continuous deployment: learn → publish → adopt → fly",
		"round", "policy version", "adopted", "mission SFD (m)", "mission crashes")
	// One loop for every round: each Run continues the flight with the
	// replay collected so far.
	loop := &rl.OnlineLoop{Agent: learner, Worlds: []*env.World{trainWorld}, Tracker: rl.TrackerFor(rounds * chunkIters)}
	for round := 1; round <= rounds; round++ {
		// The learner trains another chunk and publishes the L3 tail.
		if _, err := loop.Run(context.Background(), chunkIters); err != nil {
			log.Fatal(err)
		}
		version := board.Publish(learner.Net, spec.Name)

		// The deployed drone picks the snapshot up between missions; the
		// adoption rebuilds its compiled quant backend over the new tail.
		adopted, err := drone.AdoptPolicy(board)
		if err != nil {
			log.Fatal(err)
		}
		droneWorld.Seed(int64(100 * round))
		droneWorld.Spawn()
		mission := rl.Evaluate(droneWorld, drone, flySteps)
		t.Addf(round, int(version), fmt.Sprint(adopted),
			mission.SafeFlightDistance(), mission.Crashes())
	}
	fmt.Println(t.String())
	fmt.Printf("drone flew %d missions on the %q backend, refreshing its policy from %d publishes\n",
		rounds, drone.Substrate().Backend, board.Version())
}
