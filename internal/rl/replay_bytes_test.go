package rl

import (
	"context"
	"flag"
	"runtime"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// The defaults keep the test quick; EXPERIMENTS.md's heap table is this test
// at full scale:
//
//	go test -count=1 -run TestReplayResidentBytes -v ./internal/rl -args -replay.capacity 4096 -replay.steps 6000
var (
	replayCapacity = flag.Int("replay.capacity", 256, "replay capacity of TestReplayResidentBytes")
	replaySteps    = flag.Int("replay.steps", 320, "env steps each loop of TestReplayResidentBytes flies")
)

// residentBytes sums the storage of every distinct frame, feature and word row
// the shards reach: a frame shared by the transition it ends and the one it
// starts counts once.
func residentBytes(s *ReplayShards) int {
	seen := map[any]bool{}
	total := 0
	for _, buf := range s.shards {
		for _, tr := range buf.buf[:buf.size] {
			for _, t := range []*tensor.Tensor{tr.State, tr.Next, tr.Feat, tr.NextFeat} {
				if t != nil && !seen[t] {
					seen[t] = true
					total += 4 * t.Len()
				}
			}
			for _, w := range [][]int16{tr.QFeat, tr.QNextFeat} {
				if len(w) > 0 && !seen[&w[0]] {
					seen[&w[0]] = true
					total += 2 * len(w)
				}
			}
		}
	}
	return total
}

// liveHeap is the heap still in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestReplayResidentBytes: a serial loop's replay keeps one representation of
// each state — the boundary features its learner reads under a frozen prefix,
// the frames under E2E. At equal capacity the float L3 replay holds at least 4x
// fewer bytes than the frames-plus-features layout a twin loop keeps, and a
// quant-train L3 loop keeps no frame either. The live-heap growth of each loop is logged beside it.
func TestReplayResidentBytes(t *testing.T) {
	capacity, steps := *replayCapacity, *replaySteps
	if steps <= capacity {
		t.Fatalf("fly more than the capacity (%d steps, capacity %d): the replay must be full", steps, capacity)
	}
	opts := Options{Seed: 95, BatchSize: 32, ReplayCapacity: capacity}
	for _, cfg := range []nn.Config{nn.L2, nn.L3, nn.L4, nn.E2E} {
		heap0 := liveHeap()
		a := NewAgent(nn.NavNetSpec(), cfg, opts)
		loop := &OnlineLoop{Agent: a, Worlds: []*env.World{env.IndoorApartment(96)}}
		if _, err := loop.Run(context.Background(), steps); err != nil {
			t.Fatal(err)
		}
		lean, leanHeap := residentBytes(loop.shards), liveHeap()-heap0
		runtime.KeepAlive(loop)
		loop = nil

		// The twin flies runSerial's schedule and keeps every frame beside
		// its features: its actor emits the frames, and each frame's prefix
		// pass is added once, shared like the actor shares it. The greedy
		// actions through the whole network are the featured actor's.
		heap0 = liveHeap()
		twin := NewAgent(nn.NavNetSpec(), cfg, opts)
		shards := NewReplayShards(1, capacity)
		twin.SetReplaySource(shards)
		act := twin.actor(twin.Net, env.IndoorApartment(96), twin.rng)
		act.FloatFeatures = false
		var last Transition
		for i := 0; i < steps; i++ {
			tr, _ := act.Step(twin.clock.TickEnv())
			if b := twin.Net.TrainFrom(); b > 0 {
				if tr.Feat = last.NextFeat; tr.State != last.Next {
					tr.Feat = twin.Net.ForwardRange(0, b, tr.State)
				}
				tr.NextFeat = twin.Net.ForwardRange(0, b, tr.Next)
			}
			last = tr
			shards.PushTo(0, tr)
			if i%4 == 0 {
				twin.TrainStep()
			}
		}
		whole, wholeHeap := residentBytes(shards), liveHeap()-heap0
		runtime.KeepAlive(twin)
		runtime.KeepAlive(shards)

		t.Logf("%-3v capacity %d: replay %8d B with frames and features, %8d B as kept (%.1fx); live heap +%.1f MB, +%.1f MB",
			cfg, capacity, whole, lean, float64(whole)/float64(lean), float64(wholeHeap)/1e6, float64(leanHeap)/1e6)
		switch {
		case cfg == nn.E2E && lean != whole:
			t.Errorf("E2E: the replay keeps %d B, the frames alone are %d B", lean, whole)
		case cfg != nn.E2E && lean >= whole:
			t.Errorf("%v: dropping the frames left %d B of %d", cfg, lean, whole)
		case cfg == nn.L3 && 4*lean > whole:
			t.Errorf("L3: the replay keeps %d B, want at most a quarter of the %d B frames-plus-features layout", lean, whole)
		}
	}

	a := NewAgent(nn.NavNetSpec(), nn.L3, Options{Seed: 97, BatchSize: 8, ReplayCapacity: 64, TrainBackend: "quant-train"})
	if err := a.ActivateTrainBackend(); err != nil {
		t.Fatal(err)
	}
	loop := &OnlineLoop{Agent: a, Worlds: []*env.World{env.IndoorApartment(98)}}
	if _, err := loop.Run(context.Background(), 96); err != nil {
		t.Fatal(err)
	}
	for i, tr := range loop.shards.shards[0].buf {
		if tr.State != nil || tr.Next != nil || tr.QFeat == nil || tr.QNextFeat == nil {
			t.Fatalf("quant-train L3 row %d: frames %v/%v, words %v/%v", i,
				tr.State != nil, tr.Next != nil, tr.QFeat != nil, tr.QNextFeat != nil)
		}
	}
}
