// Energy budget: a mission-planning view of the hardware model. Given a
// drone battery budget for compute, how many camera frames can each
// training topology process, and how fast can the drone fly in each of the
// paper's six environment classes while still avoiding obstacles
// (v = fps x d_min, Fig. 1)? The final section flies an actual (tiny)
// flight experiment with the systolic inference backend, so the energy
// numbers come from a per-run ledger instead of the closed-form model.
//
//	go run ./examples/energy_budget
package main

import (
	"context"
	"fmt"
	"log"

	"dronerl"
	"dronerl/internal/env"
	"dronerl/internal/hw"
	"dronerl/internal/nn"
	"dronerl/internal/report"
)

func main() {
	m := hw.NewModel()
	const batch = 4
	// A small drone might allocate ~2 Wh (7.2 kJ) of battery to compute.
	const computeBudgetJ = 7200.0

	t := report.New("frames of online learning per 2 Wh compute budget (batch 4)",
		"Config", "per-frame mJ", "frames", "minutes @ its own fps")
	for _, cfg := range nn.Configs {
		perFrame := m.EnergyPerFrameMJ(cfg)
		frames := computeBudgetJ * 1000 / perFrame
		fps := m.Iteration(cfg, batch).FPS()
		t.Addf(cfg.String(), perFrame, int(frames), frames/fps/60)
	}
	fmt.Println(t.String())

	t2 := report.New("max safe velocity by environment class (m/s, v = fps x d_min)",
		"Environment", "d_min m", "L2", "L3", "L4", "E2E")
	for _, e := range env.Fig1DMin {
		row := []interface{}{e.Name, e.DMin}
		for _, cfg := range nn.Configs {
			row = append(row, m.MaxVelocity(cfg, batch, e.DMin))
		}
		t2.Addf(row...)
	}
	fmt.Println(t2.String())

	l4 := m.Iteration(nn.L4, batch).FPS()
	e2e := m.Iteration(nn.E2E, batch).FPS()
	fmt.Printf("the L4 topology sustains %.1fx the E2E frame rate, which translates\n", l4/e2e)
	fmt.Printf("directly into a %.1fx faster safe flight speed (the paper reports >3x).\n\n", l4/e2e)

	// Measured, not modeled: run a tiny flight experiment whose greedy
	// evaluations execute on the systolic backend, and read the energy
	// back from the per-run ledgers the engine merged.
	fmt.Println("flying a tiny experiment on the systolic backend...")
	exp, err := dronerl.Flight(
		dronerl.WithSeed(4),
		dronerl.WithMetaIters(60), dronerl.WithOnlineIters(60), dronerl.WithEvalSteps(60),
		dronerl.WithScenarios("indoor-apartment"),
		dronerl.WithBackend(dronerl.Systolic),
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := dronerl.Run(context.Background(), exp); err != nil {
		log.Fatal(err)
	}
	rep := exp.Report()
	fmt.Println(rep.BuildEnergyTable().String())
	fmt.Print("merged evaluation-phase memory traffic:\n" + rep.Energy.String())
}
