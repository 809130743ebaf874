package dist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dronerl/internal/hw"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
)

func fastOpts(seed int64) rl.Options {
	return rl.Options{Seed: seed, BatchSize: 2, EpsDecaySteps: 100, ReplayCapacity: 256}
}

func takeCheckpoint(a *rl.Agent, shards *rl.ReplayShards) *Checkpoint {
	return &Checkpoint{Image: a.Checkpoint(shards)}
}

// tickClock advances a's clock to env and train steps from zero.
func tickClock(a *rl.Agent, env, train int) {
	for range env {
		a.Clock().TickEnv()
	}
	for range train {
		a.Clock().TickTrain()
	}
}

// savedCheckpoint saves a NavNet L3 learner's checkpoint — clock at 37/9,
// two shards with pushes, a target that differs from the online network, two
// actors — and returns the agent, its shards and the file.
func savedCheckpoint(t *testing.T) (*rl.Agent, *rl.ReplayShards, string) {
	t.Helper()
	spec := nn.NavNetSpec()
	a := rl.NewAgent(spec, nn.L3, fastOpts(11))
	shards := rl.NewReplayShards(2, 64)
	shards.PushTo(0, rl.Transition{State: obsTensor(1), Action: 1, Reward: 1, Done: true})
	shards.PushTo(1, rl.Transition{State: obsTensor(2), Action: 0, Reward: -1, Done: true})
	shards.PushTo(1, rl.Transition{State: obsTensor(3), Action: 2, Reward: 0, Done: true})
	tickClock(a, 37, 9)
	p := a.Target.Params()[len(a.Target.Params())-1]
	p.W.Data()[0] += 0.5
	p.MarkChanged()

	cp := takeCheckpoint(a, shards)
	cp.Slots = map[uint64]int{4: 0, 9: 1}
	cp.NextActorID = 9
	path := filepath.Join(t.TempDir(), "learner.ckpt")
	if size, err := cp.Save(path); err != nil || size <= 0 {
		t.Fatalf("Save: %d bytes, %v", size, err)
	}
	return a, shards, path
}

func encodeImage(t *testing.T, s *nn.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRoundTrip: a saved checkpoint is one weight image that
// nn.ReadSnapshot decodes, and resuming it into an agent with other weights
// and fresh shards leaves a learner whose own checkpoint is the same bytes —
// online and target weights, clock, shard cursor and push ordinals.
func TestCheckpointRoundTrip(t *testing.T) {
	a, shards, path := savedCheckpoint(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := nn.ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatalf("the checkpoint is not one weight image: %v", err)
	}
	ps := a.Net.Params()
	if img.Arch != "NavNet" || len(img.Names) != 2*len(ps)+2 || img.Names[len(ps)] != "target/"+ps[0].Name ||
		img.Names[2*len(ps)] != "state" || img.Names[2*len(ps)+1] != slotsSection {
		t.Fatalf("image %q holds sections %q", img.Arch, img.Names)
	}

	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.EnvSteps != 37 || loaded.TrainSteps != 9 {
		t.Fatalf("loaded clock %d/%d, want 37/9", loaded.EnvSteps, loaded.TrainSteps)
	}
	if len(loaded.Slots) != 2 || loaded.Slots[4] != 0 || loaded.Slots[9] != 1 || loaded.NextActorID != 9 {
		t.Fatalf("slots not preserved: %v, next %d", loaded.Slots, loaded.NextActorID)
	}

	b := rl.NewAgent(nn.NavNetSpec(), nn.L3, fastOpts(99)) // different weights
	fresh := rl.NewReplayShards(2, 64)
	if err := b.Resume(loaded.Image, fresh); err != nil {
		t.Fatal(err)
	}
	if b.Clock().EnvSteps() != 37 || b.Clock().TrainSteps() != 9 {
		t.Fatalf("clock not restored: env=%d train=%d", b.Clock().EnvSteps(), b.Clock().TrainSteps())
	}
	// The restored shards must continue the push ordinals and round-robin
	// cursor, so post-restart pushes cannot alias pre-crash entries.
	if !bytes.Equal(encodeImage(t, b.Checkpoint(fresh)), encodeImage(t, a.Checkpoint(shards))) {
		t.Fatal("the resumed learner's checkpoint differs from the one it resumed")
	}
}

// TestCheckpointMissingAndCorrupt: a missing file stays os.IsNotExist; a
// truncated one, junk, and bytes after the image are ErrCheckpointCorrupt;
// Save leaves no temporary file behind.
func TestCheckpointMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("missing file: %v, want IsNotExist", err)
	}

	spec := nn.NavNetSpec()
	a := rl.NewAgent(spec, nn.E2E, fastOpts(12))
	cp := takeCheckpoint(a, nil)
	path := filepath.Join(dir, "learner.ckpt")
	if _, err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A truncated file — what a non-atomic writer would leave after a crash
	// — must report ErrCheckpointCorrupt, not restore garbage.
	bad := map[string][]byte{
		"trunc.ckpt":    whole[:len(whole)/2],
		"junk.ckpt":     []byte("not a checkpoint at all"),
		"trailing.ckpt": append(bytes.Clone(whole), 0),
	}
	for name, b := range bad {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("%s: %v, want ErrCheckpointCorrupt", name, err)
		}
	}
	// Save never leaves temp litter behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := bad[e.Name()]; !ok && e.Name() != "learner.ckpt" {
			t.Fatalf("stray file %q after Save", e.Name())
		}
	}
}

// TestCheckpointArchMismatch: a checkpoint of one architecture does not
// resume into another — neither one of other shapes nor one of the same
// shapes under another architecture's name — and a refusal writes nothing.
func TestCheckpointArchMismatch(t *testing.T) {
	b := rl.NewAgent(nn.NavNetSpec(), nn.E2E, fastOpts(13))
	relabelled := b.Checkpoint(nil)
	relabelled.Arch = "SomeOtherNet"
	before := encodeImage(t, b.Checkpoint(nil))
	for name, img := range map[string]*nn.Snapshot{
		"TinyCkpt shapes":           takeCheckpoint(rl.NewAgent(tinyCkptSpec(), nn.L2, fastOpts(13)), nil).Image,
		"NavNet shapes, relabelled": relabelled,
	} {
		if err := b.Resume(img, nil); err == nil {
			t.Errorf("%s: restored a checkpoint of another architecture", name)
		}
		if !bytes.Equal(encodeImage(t, b.Checkpoint(nil)), before) {
			t.Fatalf("%s: a refused checkpoint changed the agent", name)
		}
	}
}

// tinyCheckpoint returns the bytes of a saved TinyCkpt L2 checkpoint: online
// and target weights, clock 37/9, two shards, two actors.
func tinyCheckpoint(t testing.TB) []byte {
	t.Helper()
	a := rl.NewAgent(tinyCkptSpec(), nn.L2, fastOpts(5))
	tickClock(a, 37, 9)
	cp := takeCheckpoint(a, rl.NewReplayShards(2, 16))
	cp.Slots, cp.NextActorID = map[uint64]int{4: 0, 9: 1}, 9
	path := filepath.Join(t.TempDir(), "learner.ckpt")
	if _, err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return whole
}

// TestCheckpointRefusesEveryFlippedBit flips one bit in every byte of a saved
// checkpoint — header, section table, online and target weights, the state
// and slots sections, the CRC — and every copy must be refused as
// ErrCheckpointCorrupt. (A gob checkpoint loaded 42 of 64 evenly spaced
// flips of a NavNet L3 file with a changed weight.)
func TestCheckpointRefusesEveryFlippedBit(t *testing.T) {
	whole := tinyCheckpoint(t)
	c, err := readCheckpoint(whole)
	if err != nil {
		t.Fatal(err)
	}
	if names := c.Image.Names; !slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, "target/") }) ||
		names[len(names)-1] != "state" {
		t.Fatalf("checkpoint holds sections %q, want target/ and state sections", names)
	}
	for o := range whole {
		b := bytes.Clone(whole)
		b[o] ^= 1 << (o % 8)
		if _, err := readCheckpoint(b); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("bit %d of byte %d flipped: %v, want ErrCheckpointCorrupt", o%8, o, err)
		}
	}
}

// tinyCkptSpec is the architecture of testdata/layout1.ckpt.
func tinyCkptSpec() nn.ArchSpec {
	return nn.ArchSpec{
		Name:   "TinyCkpt",
		InputC: 1, InputH: 4, InputW: 4,
		Convs: []nn.ConvSpec{{Name: "CONV1", InC: 1, OutC: 2, K: 3, Stride: 1, Pad: 1}},
		FCs: []nn.FCSpec{
			{Name: "FC1", In: 32, Out: 4},
			{Name: "FC2", In: 4, Out: 3},
		},
		PoolK: 2, PoolStride: 2,
	}
}

// TestCheckpointRefusesLayout1: testdata/layout1.ckpt is a gob checkpoint
// of a TinyCkpt learner (clock 37/9, two shards, two actors), written by the
// layout-1 Save. This build refuses it as corrupt and says to retake it.
func TestCheckpointRefusesLayout1(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join("testdata", "layout1.ckpt"))
	if !errors.Is(err, ErrCheckpointCorrupt) || !strings.Contains(err.Error(), "retake") {
		t.Fatalf("layout-1 checkpoint: %v, want ErrCheckpointCorrupt with a retake hint", err)
	}
}

// TestCheckpointResumesQuantTrainWords: a quant-train learner resumed from a
// checkpoint trains the checkpointed words. Resume rebuilds the train
// backend over the restored weights, so its trained words, written back,
// are the checkpoint's (a backend kept from deployment still holds the
// deploy-time words: 2 238 of the 10 501 differ here); the float target is
// the checkpoint's exactly.
func TestCheckpointResumesQuantTrainWords(t *testing.T) {
	spec := nn.NavNetSpec()
	quantAgent := func(seed int64) *rl.Agent {
		opts := fastOpts(seed)
		opts.TrainBackend, opts.BatchSize, opts.TargetSync = "quant-train", 4, 8
		a := rl.NewAgent(spec, nn.L3, opts)
		if err := a.ActivateTrainBackend(); err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := quantAgent(21)
	for i := range 32 {
		s, n := tensor.New(1, nn.NavNetInput, nn.NavNetInput), tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		s.Fill(float32(i%7) / 7)
		n.Fill(float32(i%5) / 5)
		a.Observe(rl.Transition{State: s, Action: i % nn.NavNetActions, Reward: float64(i%3) - 1, Next: n, Done: i%6 == 0})
	}
	for range 20 {
		if a.TrainStep() < 0 {
			t.Fatal("TrainStep declined a full buffer")
		}
	}
	path := filepath.Join(t.TempDir(), "learner.ckpt")
	if _, err := takeCheckpoint(a, nil).Save(path); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	b := quantAgent(21) // freshly deployed from the same weights
	if err := b.Resume(cp.Image, nil); err != nil {
		t.Fatal(err)
	}
	words := spec.Build()
	words.SetConfig(nn.L3)
	if err := b.TrainBackend().(*hw.QuantTrainBackend).Online().WriteBack(words); err != nil {
		t.Fatal(err)
	}
	want := map[string][]float32{}
	for i, name := range cp.Image.Names {
		want[name] = cp.Image.Data[i]
	}
	differ, trained := 0, 0
	for _, p := range words.TrainableParams() {
		for j, v := range p.W.Data() {
			trained++
			if v != want[p.Name][j] {
				differ++
			}
		}
	}
	for _, p := range b.Target.Params() {
		if !bytes.Equal(f32bytes(p.W.Data()), f32bytes(want["target/"+p.Name])) {
			t.Errorf("float target %s not restored", p.Name)
		}
	}
	if differ != 0 || trained == 0 {
		t.Fatalf("%d of %d trained words differ from the checkpoint's", differ, trained)
	}
	t.Logf("%d trained words restored", trained)
}

// FuzzCheckpointDecode throws byte streams at the checkpoint decoder and
// resumes what decodes into a NavNet learner: no input panics, and every
// decode error wraps ErrCheckpointCorrupt. The seeds are a whole
// checkpoint, its truncations and the layout-1 gob file.
func FuzzCheckpointDecode(f *testing.F) {
	whole := tinyCheckpoint(f)
	f.Add(whole)
	for _, cut := range []int{0, 5, 24, len(whole) / 2, len(whole) - 1} {
		f.Add(whole[:cut])
	}
	gob, err := os.ReadFile(filepath.Join("testdata", "layout1.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gob)

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := readCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCheckpointCorrupt", err)
			}
			return
		}
		if c.Image == nil || c.Slots == nil {
			t.Fatalf("decoded checkpoint %+v is missing its image or actor table", c)
		}
		b := rl.NewAgent(tinyCkptSpec(), nn.L2, fastOpts(6))
		_ = b.Resume(c.Image, rl.NewReplayShards(2, 16))
	})
}
