package rl

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// goldenStart is one starting point of the float golden schedule: the weights
// the agents start from and the pool of frames their replay is filled with.
type goldenStart struct {
	weights *nn.Snapshot
	pool    []*tensor.Tensor
}

const (
	goldenSteps = 12
	goldenSync  = 4
	goldenPool  = 96
)

// goldenMeta is the deployed shape: weights from one seeded end-to-end
// meta-training run on the indoor meta-environment and real depth frames
// from a random flight through the apartment. Trained once per test binary.
var goldenMeta = sync.OnceValue(func() goldenStart {
	const seed, iters = 5, 150
	a := NewAgent(nn.NavNetSpec(), nn.E2E, Options{Seed: seed, BatchSize: 4, EpsDecaySteps: iters / 2})
	(&OnlineLoop{Agent: a, Worlds: []*env.World{env.IndoorMeta(seed)}}).Run(context.Background(), iters)
	w := env.IndoorApartment(77)
	rng := rand.New(rand.NewSource(78))
	pool := []*tensor.Tensor{env.DepthImage(w.Depths(), w.Camera.MaxRange)}
	for len(pool) < goldenPool {
		res := w.Step(env.Action(rng.Intn(env.NumActions)))
		pool = append(pool, env.DepthImage(res.Depths, w.Camera.MaxRange))
	}
	return goldenStart{weights: nn.TakeSnapshot(a.Net, "NavNet"), pool: pool}
})

// goldenInit is the twin with nothing but math/rand behind it: seeded initial
// weights and uniform noise frames.
func goldenInit() goldenStart {
	net := nn.BuildNavNet()
	net.Init(rand.New(rand.NewSource(79)))
	rng := rand.New(rand.NewSource(78))
	pool := make([]*tensor.Tensor, goldenPool)
	for i := range pool {
		pool[i] = tensor.New(1, env.ImageSize, env.ImageSize)
		for j := range pool[i].Data() {
			pool[i].Data()[j] = rng.Float32()
		}
	}
	return goldenStart{weights: nn.TakeSnapshot(net, "NavNet"), pool: pool}
}

func hashU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func hashF32s(h hash.Hash, vs []float32) {
	var buf [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
}

// hashParams folds every weight and bias word of net, in layer order.
func hashParams(h hash.Hash, net *nn.Network) {
	for _, p := range net.Params() {
		hashF32s(h, p.W.Data())
	}
}

// goldenRun restores the start into a fresh agent under cfg, fills its replay
// from the pool (consecutive frames as state and next, every seventh
// transition terminal and stored without a Next; under a frozen topology
// every third transition carries its cached boundary feature and every fifth
// its next-state feature, so the tail path sees hits and misses) and runs the
// schedule. It returns the hash of what the schedule starts from and of what
// it leaves: per-step MSE bits, every online weight and bias word, the
// Q-values of a fixed frame, and Forward / split ForwardRange outputs.
func goldenRun(t *testing.T, g goldenStart, cfg nn.Config, double bool, batch int) (start, final string) {
	a := NewAgent(nn.NavNetSpec(), cfg, Options{
		Seed: 81, BatchSize: batch, LR: 0.01, TargetSync: goldenSync, DoubleDQN: double,
	})
	if err := g.weights.Restore(a.Net); err != nil {
		t.Fatal(err)
	}
	a.syncTarget()

	h := sha256.New()
	hashParams(h, a.Net)
	for _, f := range g.pool {
		hashF32s(h, f.Data())
	}
	start = hex.EncodeToString(h.Sum(nil))

	boundary, last := a.Net.TrainFrom(), len(a.Net.Layers)
	rng := rand.New(rand.NewSource(80))
	for i := 0; i+1 < len(g.pool); i++ {
		tr := Transition{
			State:  g.pool[i],
			Action: rng.Intn(nn.NavNetActions),
			Reward: float64(rng.Intn(2001)-1000) / 1000,
		}
		if tr.Done = i%7 == 3; !tr.Done {
			tr.Next = g.pool[i+1]
		}
		if boundary > 0 {
			if i%3 == 0 {
				tr.Feat = a.Net.ForwardRange(0, boundary, g.pool[i])
			}
			if i%5 == 0 && !tr.Done {
				tr.NextFeat = a.Net.ForwardRange(0, boundary, g.pool[i+1])
			}
		}
		a.Observe(tr)
	}

	h = sha256.New()
	for step := 0; step < goldenSteps; step++ {
		hashU64(h, math.Float64bits(a.TrainStep()))
	}
	hashParams(h, a.Net)
	hashF32s(h, a.QValues(g.pool[0]))
	hashF32s(h, a.Net.Forward(g.pool[1]).Data())
	// Split passes: at a conv-stage boundary (a CHW activation) and, under a
	// frozen topology, at the training boundary (a flat one).
	for _, cut := range []int{2, boundary} {
		if cut == 0 {
			continue
		}
		mid := a.Net.ForwardRange(0, cut, g.pool[2])
		for _, d := range mid.Shape() {
			hashU64(h, uint64(d))
		}
		hashF32s(h, mid.Data())
		hashF32s(h, a.Net.ForwardRange(cut, last, mid).Data())
	}
	return start, hex.EncodeToString(h.Sum(nil))
}

// TestFloatStackGolden pins the float layer stack bit for bit: 12 TrainSteps
// (TargetSync 4, every seventh transition terminal) under L2, L3 and E2E, DQN
// and DoubleDQN, batch 1, 8 and 32, must leave exactly the weights, per-step
// MSE bits and Forward / ForwardRange outputs they left at 2c75f9e, the last
// commit that carried a per-sample Forward/Backward beside the batched one
// (and tests pinning the two equal). Hashes were captured there, before the
// per-sample stack was cut. Float results move where the compiler fuses
// multiply-adds, so the pins hold on amd64 only.
func TestFloatStackGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("float golden hashes were captured on amd64; %s fuses multiply-adds and rounds differently", runtime.GOARCH)
	}
	starts := map[string]goldenStart{"meta": goldenMeta(), "init": goldenInit()}
	startHash := map[string]string{
		"meta": "2f87ee15406e45d1b5fc9e9ee20a812a11951245b5c18651f824af88f4936ef3",
		"init": "e73a3b9c1950917d9c11eb58029fc2017fcf4f28cfd869275c15b55ee763f382",
	}
	want := map[string]string{
		"meta/L2/DQN/b1":         "a4d8887a389e58f146290303e80442cbac81d6d5731732cd0ab51500eac3060c",
		"meta/L2/DQN/b8":         "629f3623556583cbfd7a9eba3a0c337df3d45a5b8e0c2a12f21a8adeb171f52a",
		"meta/L2/DQN/b32":        "4d556b22f5abfc5f1ce7b62efce8b4e8d15be1a814a495201ff3204cc9aaea4a",
		"meta/L2/DoubleDQN/b1":   "a4d8887a389e58f146290303e80442cbac81d6d5731732cd0ab51500eac3060c",
		"meta/L2/DoubleDQN/b8":   "c596803881982aa93ece44aa77af33569c61a1be7021de7510fa9a84e6d6d2f9",
		"meta/L2/DoubleDQN/b32":  "4d556b22f5abfc5f1ce7b62efce8b4e8d15be1a814a495201ff3204cc9aaea4a",
		"meta/L3/DQN/b1":         "1f5df010c162929b9dbc745b845896448c53f2cd0ad99d330ff98e6c4c590c38",
		"meta/L3/DQN/b8":         "c7485430d05c4ec0d313130825172cd8bf249ca9bbf98d5e435e7488a5dc9549",
		"meta/L3/DQN/b32":        "032bded1b55548dbe45e7aff712f1a5cebeab6b5d85f55033e57f7c2b5937428",
		"meta/L3/DoubleDQN/b1":   "1f5df010c162929b9dbc745b845896448c53f2cd0ad99d330ff98e6c4c590c38",
		"meta/L3/DoubleDQN/b8":   "32659c96f905b6fd7c57c2f086d9c92a516c15e7ea6d7330b03b2b1225ed728b",
		"meta/L3/DoubleDQN/b32":  "032bded1b55548dbe45e7aff712f1a5cebeab6b5d85f55033e57f7c2b5937428",
		"meta/E2E/DQN/b1":        "5306a500bcfa2d07c3cfb84c6d5b9cfb27573c32d3ca9444e18636f1b804b594",
		"meta/E2E/DQN/b8":        "32a167fa3b99d3c466622a759062baf5173b873b76e041a042522a91867d2056",
		"meta/E2E/DQN/b32":       "02d6daa0c263438753af8b9288669d17a759f4c51078b4649128bad5770b1630",
		"meta/E2E/DoubleDQN/b1":  "525dd46df8d1035d15bc847076a52237dfebeb4ed6885751719f7142f7f0e958",
		"meta/E2E/DoubleDQN/b8":  "5124b4bf4a677218b5d2d87e167a22cd6366eee4699a19026ce65867496c8607",
		"meta/E2E/DoubleDQN/b32": "02d6daa0c263438753af8b9288669d17a759f4c51078b4649128bad5770b1630",
		"init/L2/DQN/b1":         "1e9556ab694ab94f90bc5873db99a6bd1b64df6630f96dc8a47ecc24d64a9f7e",
		"init/L2/DQN/b8":         "a57d8bb05633b81d6de102ab400bb347f776811f95e685317599dca342bc7a66",
		"init/L2/DQN/b32":        "91bc6452f40021a5d6892d6ad651b2d957ca2bf86caa64be1ad4be261664f75c",
		"init/L2/DoubleDQN/b1":   "1e9556ab694ab94f90bc5873db99a6bd1b64df6630f96dc8a47ecc24d64a9f7e",
		"init/L2/DoubleDQN/b8":   "a57d8bb05633b81d6de102ab400bb347f776811f95e685317599dca342bc7a66",
		"init/L2/DoubleDQN/b32":  "91bc6452f40021a5d6892d6ad651b2d957ca2bf86caa64be1ad4be261664f75c",
		"init/L3/DQN/b1":         "12c33a0116e92591af2b94bb878456104797ade44dbca1745dd36e5d6feab6b8",
		"init/L3/DQN/b8":         "725f1b63ac78e30faa8a9a014e65bee86be125af1e749d2d928347bc1ef4de59",
		"init/L3/DQN/b32":        "08e3f91eb14065c4c2a3a609dc6d81c1ead47a29182fa9c22f8ab7fe209887db",
		"init/L3/DoubleDQN/b1":   "85331b73bb2ac64339404f611a5495cc0323d86e1874d3b48b7674c2046f4808",
		"init/L3/DoubleDQN/b8":   "4ebda8f6bc15a6b7cf2eb1beaec1bb9daa81ee32ec54ef4f3e874991e0130f29",
		"init/L3/DoubleDQN/b32":  "35b9c447a8ccfc6a616c00c924d36d3b4492c61a17ae09ac17fe8793f3e2f0a3",
		"init/E2E/DQN/b1":        "cf473833104e2d0bc7dc90e2494351c1c8db4a25cacf171a758efccf79590391",
		"init/E2E/DQN/b8":        "de6a09d2816966fe98c6101d5dca91b925712a763501ddc04b20de44c0475219",
		"init/E2E/DQN/b32":       "5f822d4935eefbefce0b43c29b7dd59e161063f9cb9fbd38891969f24b240401",
		"init/E2E/DoubleDQN/b1":  "b3d0fa4e67a51f7eaa4bb0cd5c267e1364975d252f68831f353b7c37ba0dc5ba",
		"init/E2E/DoubleDQN/b8":  "55632b9fe8f8b8724a341d0be0b2aec4ebb6265e23a99f5480ce378a3c09f8af",
		"init/E2E/DoubleDQN/b32": "dd183cdbfc8a39a71e40d7853ce53fae0cb2f050ba64a0a347506719dc42621f",
	}
	for _, net := range []string{"meta", "init"} {
		for _, cfg := range []nn.Config{nn.L2, nn.L3, nn.E2E} {
			for _, double := range []bool{false, true} {
				for _, batch := range []int{1, 8, 32} {
					algo := "DQN"
					if double {
						algo = "DoubleDQN"
					}
					name := fmt.Sprintf("%s/%s/%s/b%d", net, cfg, algo, batch)
					t.Run(name, func(t *testing.T) {
						start, got := goldenRun(t, starts[net], cfg, double, batch)
						if start != startHash[net] {
							t.Fatalf("the schedule's starting point moved (meta-training, ray casting or init, not the TD step): start %s, pinned %s",
								start, startHash[net])
						}
						if got != want[name] {
							t.Fatalf("float stack is no longer bit-identical to the pinned one: got %s, want %s", got, want[name])
						}
					})
				}
			}
		}
	}
}
