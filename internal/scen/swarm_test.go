package scen

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dronerl/internal/core"
	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"

	// Linked for its backend registration: the quant-fleet tests resolve
	// "quant" through the registry.
	_ "dronerl/internal/hw"
)

// swarmNet builds a small untrained policy net — greedy flight needs a
// policy, not a good one.
func swarmNet(t *testing.T) *nn.Network {
	t.Helper()
	return rl.NewAgent(nn.NavNetSpec(), nn.L3, rl.Options{Seed: 3}).Net
}

// swarmStatsHash is the SHA-256 of per-drone stats, index order.
func swarmStatsHash(stats []DroneStats) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, d := range stats {
		put(uint64(d.Drone))
		put(uint64(d.Steps))
		put(uint64(d.Crashes))
		put(math.Float64bits(d.MeanReward))
		put(math.Float64bits(d.Distance))
		put(math.Float64bits(d.SFD))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// swarmReportHash is the SHA-256 of a swarm experiment's whole report: the
// per-drone stats, the fleet aggregates, the backend and its cost tally,
// and the online phase's tracker.
func swarmReportHash(rep *SwarmReport) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(swarmStatsHash(rep.Drones)))
	h.Write([]byte(rep.Env + "|" + rep.Config.String() + "|" + rep.Backend + "|"))
	put(uint64(rep.EvalCost.Inferences))
	put(math.Float64bits(rep.EvalCost.EnergyMJ))
	put(math.Float64bits(rep.EvalCost.LatencyMS))
	put(uint64(rep.TotalSteps))
	put(uint64(rep.TotalCrashes))
	put(math.Float64bits(rep.TotalDistance))
	put(math.Float64bits(rep.MeanReward))
	put(math.Float64bits(rep.MeanSFD))
	put(uint64(rep.Training.Steps()))
	put(uint64(rep.Training.Crashes()))
	put(math.Float64bits(rep.Training.CumulativeReward()))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFlySwarmGoldenAndReproducible pins the lockstep fleet to the stats it
// left at 2c75f9e, where each drone was also flown alone through single-row
// forward passes and compared bit for bit (that arm is deleted since; hash
// captured there), and pins the flight reproducible run to run despite its
// per-tick goroutines.
func TestFlySwarmGoldenAndReproducible(t *testing.T) {
	net := swarmNet(t)
	base, err := Generate(GenSpec{Kind: Indoor, Corridor: 1.0, Density: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	stats := FlySwarm(nn.NewFloatBackend(net), base, 4, 120, 9)
	again := FlySwarm(nn.NewFloatBackend(net), base, 4, 120, 9)
	if !reflect.DeepEqual(stats, again) {
		t.Fatalf("swarm flight not reproducible:\n%+v\nvs\n%+v", stats, again)
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("float golden hash was captured on amd64; %s rounds differently", runtime.GOARCH)
	}
	const want = "0483bad8244667aa89fc12c9ce937650dcc0178d50626f7ab337aec919fe6827"
	if got := swarmStatsHash(stats); got != want {
		t.Fatalf("swarm flight moved: stats hash %s, want %s\n%+v", got, want, stats)
	}
}

func TestFlySwarmLeavesTheBaseWorldAlone(t *testing.T) {
	net := swarmNet(t)
	base := env.IndoorApartment(3)
	pose := base.Drone
	dist := base.FlightDistance()
	stats := FlySwarm(nn.NewFloatBackend(net), base, 6, 80, 11)
	if base.Drone != pose || base.FlightDistance() != dist {
		t.Fatal("swarm flight mutated the base world")
	}
	if len(stats) != 6 {
		t.Fatalf("got %d drone stats, want 6", len(stats))
	}
	for i, d := range stats {
		if d.Drone != i {
			t.Fatalf("stats not in index order: slot %d holds drone %d", i, d.Drone)
		}
		if d.Steps != 80 {
			t.Errorf("drone %d flew %d steps, want 80", i, d.Steps)
		}
		if d.Distance <= 0 || d.SFD <= 0 {
			t.Errorf("drone %d has empty flight: %+v", i, d)
		}
	}
}

func TestSwarmExperimentMergesInIndexOrder(t *testing.T) {
	e, err := NewSwarmExperiment("gen-indoor-sparse", 3, nn.L3, 5, 60, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep == nil {
		t.Fatal("swarm experiment finished without a report")
	}
	if len(rep.Drones) != 3 {
		t.Fatalf("got %d drones, want 3", len(rep.Drones))
	}
	var steps, crashes int
	var distance, reward, sfd float64
	for i, d := range rep.Drones {
		if d.Drone != i {
			t.Fatalf("per-drone stats out of index order at slot %d: %+v", i, d)
		}
		steps += d.Steps
		crashes += d.Crashes
		distance += d.Distance
		reward += d.MeanReward
		sfd += d.SFD
	}
	if rep.TotalSteps != steps || rep.TotalCrashes != crashes {
		t.Errorf("merged totals disagree with per-drone sums: %+v", rep)
	}
	if rep.TotalDistance != distance {
		t.Errorf("TotalDistance %.6g != sum %.6g", rep.TotalDistance, distance)
	}
	if rep.MeanReward != reward/3 || rep.MeanSFD != sfd/3 {
		t.Errorf("merged means disagree with per-drone stats: %+v", rep)
	}
	if rep.Training == nil || rep.Training.Steps() != 60 {
		t.Errorf("online-phase tracker missing or short: %+v", rep.Training)
	}

	// The whole experiment is deterministic: meta-train and online run the
	// serial schedule and the swarm phase is scheduling-independent.
	e2, err := NewSwarmExperiment("gen-indoor-sparse", 3, nn.L3, 5, 60, 60, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(context.Background(), e2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Drones, e2.Report().Drones) {
		t.Fatalf("swarm experiment not reproducible:\n%+v\nvs\n%+v", rep.Drones, e2.Report().Drones)
	}
	// The report is pinned, captured at 942758f before the transfer recipe
	// moved into internal/transfer.
	const want = "3fe7dde632721391cb39947447f10c2b0d9c159d92eea3bfced8a570656c282e"
	if got := swarmReportHash(rep); got != want {
		t.Fatalf("swarm experiment moved: report hash %s, want %s\n%+v", got, want, rep)
	}
}

func TestNewSwarmExperimentValidates(t *testing.T) {
	_, err := NewSwarmExperiment("no-such-world", 3, nn.L3, 1, 10, 10, 10)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if !strings.Contains(err.Error(), "registered scenarios are") ||
		!strings.Contains(err.Error(), "indoor-apartment") {
		t.Errorf("unknown-scenario error does not list the catalog: %v", err)
	}
	if _, err := NewSwarmExperiment("indoor-apartment", 0, nn.L3, 1, 10, 10, 10); err == nil {
		t.Error("zero drones accepted")
	}
	if _, err := NewSwarmExperiment("indoor-apartment", 2, nn.L3, 1, 10, 0, 10); err == nil {
		t.Error("zero online budget accepted")
	}
}

// flySerial is the per-drone reference flight of the quant-fleet test: each
// drone flies alone on per-sample backend.Infer, worlds seeded like
// FlySwarm's.
func flySerial(backend nn.Backend, base *env.World, n, steps int, seed int64) []DroneStats {
	stats := make([]DroneStats, n)
	for i := range stats {
		w := base.Clone()
		w.Seed(seed + 97*int64(i))
		w.Spawn()
		o := env.DepthImage(w.Depths(), w.Camera.MaxRange)
		var rewardSum float64
		d := DroneStats{Drone: i, Steps: steps}
		for s := 0; s < steps; s++ {
			res := w.Step(env.Action(tensor.ArgMaxRow(backend.Infer(o))))
			rewardSum += res.Reward
			if res.Crashed {
				d.Crashes++
				d.Distance += res.FlightDistance
			}
			o = env.DepthImage(res.Depths, w.Camera.MaxRange)
		}
		d.Distance += w.FlightDistance()
		d.MeanReward = rewardSum / float64(steps)
		d.SFD = d.Distance / float64(d.Crashes+1)
		stats[i] = d
	}
	return stats
}

// TestFlySwarmQuantBackendBitIdentical: a quant fleet flown in lockstep (one
// int16 GEMM per layer per tick across all drones) must produce exactly the
// stats of the same backend flown per-drone per-sample — the batched kernel
// is a scheduling decision, never a numeric one — while streaming the MRAM
// weights once per tick instead of once per drone.
func TestFlySwarmQuantBackendBitIdentical(t *testing.T) {
	net := swarmNet(t)
	base, err := Generate(GenSpec{Kind: Indoor, Corridor: 1.0, Density: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	const drones, steps = 4, 120
	mkBackend := func() nn.Backend {
		b, err := nn.NewBackendFor("quant", net, nn.NavNetSpec(), nn.L3)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serialB := mkBackend()
	serial := flySerial(serialB, base, drones, steps, 9)
	batchedB := mkBackend()
	batched := FlySwarm(batchedB, base, drones, steps, 9)
	if !reflect.DeepEqual(serial, batched) {
		t.Fatalf("serial and batched quant swarm flights diverge:\nserial:  %+v\nbatched: %+v",
			serial, batched)
	}
	sc, bc := serialB.Cost(), batchedB.Cost()
	if sc.Inferences != bc.Inferences {
		t.Fatalf("inference counts diverge: serial %d, batched %d", sc.Inferences, bc.Inferences)
	}
	// drones× fewer weight streams: one per tick instead of one per drone
	// per tick (up to float summation order in the running tally).
	se, be := sc.EnergyMJ, bc.EnergyMJ
	if ratio := be * float64(drones) / se; ratio < 1-1e-9 || ratio > 1+1e-9 {
		t.Errorf("batched fleet energy %v mJ, want serial %v / %d drones", be, se, drones)
	}
}

// TestSwarmExperimentQuantBackend: the agent's evaluation backend carries
// the compiled quant engine through the mission phase and the report
// carries its name and amortized cost tally.
func TestSwarmExperimentQuantBackend(t *testing.T) {
	e, err := NewSwarmExperiment("gen-indoor-sparse", 3, nn.L3, 21, 40, 40, 30, rl.WithEvalBackend("quant"))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Run(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	rep := e.Report()
	if rep == nil {
		t.Fatal("no report after run")
	}
	if rep.Backend != "quant" {
		t.Errorf("report backend %q, want quant", rep.Backend)
	}
	if rep.EvalCost.Inferences != int64(3*30) {
		t.Errorf("backend charged %d inferences, want %d", rep.EvalCost.Inferences, 3*30)
	}
	if rep.EvalCost.EnergyMJ <= 0 {
		t.Errorf("backend energy %v mJ, want > 0", rep.EvalCost.EnergyMJ)
	}
	// Captured at 942758f, when the mission backend was a field of the
	// experiment rather than the agent's evaluation backend.
	const want = "c4857ef968586b2988c240074858aad4d1a3def56a1c0f85bc9090cbc6d417cc"
	if got := swarmReportHash(rep); got != want {
		t.Fatalf("quant swarm experiment moved: report hash %s, want %s\n%+v", got, want, rep)
	}
}
