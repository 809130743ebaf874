package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/hw"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"
)

// The pins in this file were captured at 23ffca2, where RunMission's online
// arm and both ablations still ran their own serial act→store→train loops,
// before those loops were folded into the online loop. They are not to be
// re-captured for a change that claims to keep behaviour.

func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("float golden hashes were captured on amd64; %s rounds differently", runtime.GOARCH)
	}
}

func hashU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func hashF64(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		hashU64(h, math.Float64bits(v))
	}
}

// TestRunMissionGolden pins RunMission bit for bit under every topology,
// learning online and inference-only: the mission result and, online, the
// weights and train-step count it leaves.
func TestRunMissionGolden(t *testing.T) {
	skipOffAMD64(t)
	want := map[string]string{
		"L2/online":     "ce0f8f97aad525bec04afc5b5339bf26220e9a4f7f094a438c8942eedaa5788f",
		"L3/online":     "773faa831046aa0823dc2c1bc941b317c6ff32b8366ba88f7a339cef59b50ac9",
		"L4/online":     "c44f75f7c9349c5d4c569dbc7769861c877b42d20f2528d9c0d49cbbea24d455",
		"E2E/online":    "a7fb22de2c32ded8e2204d98ebdf70a7f94f69a56a0f3951b0ce358b65b19110",
		"L2/inference":  "5d978517a72bd46b6a0f2dedc9fc55b67b656113e83a70dc049501676e0849b9",
		"L3/inference":  "aa34214b4f5901aefc6547780755ed15106b4f99b55f50f2cfe1da21cc924b08",
		"L4/inference":  "6c94b41b27851dfd59a14a0d9d110a169ba37d659b73a11c0b8b38f40342166b",
		"E2E/inference": "e34df514fbf9e08ecf5d34e87f58ae0d7549c8b232c512c08a371e50fa29d286",
	}
	spec := nn.NavNetSpec()
	snap, _ := transfer.MetaTrain(env.IndoorMeta(91), spec, 60, rl.Options{Seed: 91, BatchSize: 4, EpsDecaySteps: 30})
	for _, online := range []bool{true, false} {
		for _, cfg := range nn.Configs {
			mode := "inference"
			if online {
				mode = "online"
			}
			name := fmt.Sprintf("%s/%s", cfg, mode)
			t.Run(name, func(t *testing.T) {
				agent, err := deploySnapshot(snap, spec, cfg, 92, rl.Options{})
				if err != nil {
					t.Fatal(err)
				}
				model := hw.NewModel()
				// A budget that ends the mission before MaxFrames, so the
				// energy bound decides the frame count.
				budget := 130 * model.EnergyPerFrameMJ(cfg) / 1000
				res := RunMission(env.IndoorApartment(93), agent, model, MissionConfig{
					Config: cfg, ComputeBudgetJ: budget, MaxFrames: 400, Online: online,
				})
				h := sha256.New()
				hashU64(h, uint64(res.Frames))
				hashU64(h, uint64(res.Crashes))
				hashF64(h, res.DistanceM, res.EnergySpentJ, res.WallClockS, res.FPS)
				hashU64(h, uint64(agent.TrainSteps()))
				hashU64(h, uint64(agent.EnvSteps()))
				var buf [4]byte
				for _, p := range agent.Net.Params() {
					for _, v := range p.W.Data() {
						binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
						h.Write(buf[:])
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want[name] {
					t.Errorf("mission moved (%v): hash %s, want %s", res, got, want[name])
				}
			})
		}
	}
}

// ablationGoldenScale is small enough for tier-1 in short mode too.
func ablationGoldenScale(seed int64) FlightScale {
	return FlightScale{MetaIters: 40, OnlineIters: 40, EvalSteps: 30, Seed: seed}
}

// ablationHash runs e serially and hashes its result with every event's
// phase, run index, iteration count and reward, in (phase, run) order — the
// training-reward events pin the online loops, not only the coarse SFDs.
func ablationHash(t *testing.T, e Experiment, result func(hash.Hash)) string {
	t.Helper()
	var events []Event
	if err := Run(context.Background(), e, WithWorkers(1), WithProgress(func(ev Event) {
		events = append(events, ev)
	})); err != nil {
		t.Fatal(err)
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].Phase != events[j].Phase {
			return events[i].Phase < events[j].Phase
		}
		return events[i].Run < events[j].Run
	})
	h := sha256.New()
	for _, ev := range events {
		h.Write([]byte(ev.Phase))
		hashU64(h, uint64(ev.Run))
		hashU64(h, uint64(ev.Iteration))
		hashF64(h, ev.Reward)
	}
	result(h)
	return hex.EncodeToString(h.Sum(nil))
}

// TestAblationsGolden pins the richer-meta and stereo ablations bit for bit
// at a small scale: their results and the training reward of every run.
func TestAblationsGolden(t *testing.T) {
	skipOffAMD64(t)
	rich := NewRicherMetaExperiment(ablationGoldenScale(7))
	got := ablationHash(t, rich, func(h hash.Hash) {
		r := rich.Result()
		hashF64(h, r.TownSFDStandard, r.TownSFDRich, r.ImprovementPct)
	})
	if want := "03e7b414a6c53eea4b248691d2acba1436b85e1dac56ac2341357c37a03ecf52"; got != want {
		t.Errorf("richer-meta ablation moved (%+v): hash %s, want %s", rich.Result(), got, want)
	}

	stereo := NewStereoExperiment(ablationGoldenScale(8))
	got = ablationHash(t, stereo, func(h hash.Hash) {
		s := stereo.Result()
		hashF64(h, s.SFDIdeal, s.SFDStereo)
	})
	if want := "85ff307a0bda174da8db7b3142190e2bfe53185ef6fea90842d8e2ffe3f2b100"; got != want {
		t.Errorf("stereo ablation moved (%+v): hash %s, want %s", stereo.Result(), got, want)
	}
}
