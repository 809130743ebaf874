package dronerl_test

import (
	"fmt"

	"dronerl"
	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

// ExampleNewHardwareModel prices the co-design: training only the last
// four FC layers cuts per-iteration latency and energy by over 80%
// relative to end-to-end learning.
func ExampleNewHardwareModel() {
	m := dronerl.NewHardwareModel()
	lat, en := m.Reductions(dronerl.L4)
	fmt.Printf("L4 latency cut: %.1f%%\n", lat)
	fmt.Printf("L4 energy cut:  %.1f%%\n", en)
	// Output:
	// L4 latency cut: 84.2%
	// L4 energy cut:  82.6%
}

// ExampleNewHardwareModel_memoryPlan shows the Fig. 5 weight mapping: the
// paper's flagship keeps the last three FC layers (plus gradient sums and
// scratch) in 29.4 MB of on-die SRAM and the other ~100 MB in STT-MRAM.
func ExampleNewHardwareModel_memoryPlan() {
	m := dronerl.NewHardwareModel()
	p := m.PlanMemory(nn.L3)
	fmt.Printf("SRAM: %.1f MB, STT-MRAM: %.1f MB\n", p.SRAMTotalMB, p.MRAMTotalMB)
	// Output:
	// SRAM: 29.4 MB, STT-MRAM: 99.8 MB
}

// ExampleFlight lists the four evaluation worlds a Flight without
// WithScenarios flies; the engine builds scenario i with seed base+1+i.
func ExampleFlight() {
	exp, err := dronerl.Flight(dronerl.WithSeed(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	for i, name := range env.DefaultFlightScenarios() {
		sc, _ := env.LookupScenario(name)
		w := sc.Build(exp.Scale().Seed + 1 + int64(i))
		fmt.Printf("%s (d_min %.1f m)\n", w.Name, w.DMin)
	}
	// Output:
	// indoor apartment (d_min 0.7 m)
	// indoor house (d_min 1.0 m)
	// outdoor forest (d_min 3.0 m)
	// outdoor town (d_min 4.0 m)
}

// ExampleDeploy shows the transfer-learning pipeline: meta-train, download
// the snapshot into a drone whose online training touches only the last two
// FC layers.
func ExampleDeploy() {
	world := env.IndoorApartment(8)
	snap := dronerl.MetaTrain(world, 50, rl.Options{Seed: 7, BatchSize: 2, EpsDecaySteps: 25})
	agent, err := dronerl.Deploy(snap, dronerl.WithTopology(dronerl.L2), dronerl.WithSeed(8))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("trainable: %d of %d weights\n",
		agent.Net.TrainableWeightCount(), agent.Net.WeightCount())
	// Output:
	// trainable: 2245 of 143077 weights
}
