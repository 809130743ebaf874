package dronerl

import (
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/rl"
)

func TestFacadeHardware(t *testing.T) {
	rep := RunHardwareExperiment()
	if rep == nil || len(rep.Forward) != 10 {
		t.Fatal("hardware experiment incomplete")
	}
	m := NewHardwareModel()
	lat, en := m.Reductions(L4)
	if lat <= 0 || en <= 0 {
		t.Error("L4 must reduce latency and energy vs E2E")
	}
}

func TestFacadeAgentAndEnvs(t *testing.T) {
	if names := env.DefaultFlightScenarios(); len(names) != 4 {
		t.Fatalf("%d environments", len(names))
	}
	a, err := Agent(WithTopology(L3), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || a.Net == nil {
		t.Fatal("agent not built")
	}
}

func TestFacadeTransferRoundTrip(t *testing.T) {
	world := env.IndoorApartment(3)
	snap := MetaTrain(world, 40, rl.Options{Seed: 7, BatchSize: 2, EpsDecaySteps: 20})
	agent, err := Deploy(snap, WithTopology(L2), WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if agent.Net.TrainableWeightCount() >= agent.Net.WeightCount() {
		t.Error("L2 deployment must freeze most of the network")
	}
}

func TestScales(t *testing.T) {
	if FullScale().MetaIters <= QuickScale().MetaIters {
		t.Error("full scale must exceed quick scale")
	}
}
