package transfer

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"runtime"
	"strings"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

// hashTracker folds a flight tracker's series and counters into h.
func hashTracker(h hash.Hash, tr *metrics.FlightTracker) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, series := range [][]float64{tr.RewardSeries(), tr.ReturnSeries(), tr.DistanceSeries()} {
		put(uint64(len(series)))
		for _, v := range series {
			put(math.Float64bits(v))
		}
	}
	put(uint64(tr.Steps()))
	put(uint64(tr.Crashes()))
	put(math.Float64bits(tr.SafeFlightDistance()))
}

// onlineRunHash is the SHA-256 of a run's training and evaluation trackers.
func onlineRunHash(res Result) string {
	h := sha256.New()
	hashTracker(h, res.Training)
	hashTracker(h, res.Eval)
	return hex.EncodeToString(h.Sum(nil))
}

// skipOffAMD64 excuses the float golden pins where the compiler fuses
// multiply-adds and float results round differently.
func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("float golden hashes were captured on amd64; %s rounds differently", runtime.GOARCH)
	}
}

// TestRunOnlineActorsOneGolden pins the deterministic single-actor schedule:
// RunOnline with the default single actor and a fixed seed must leave exactly
// the training curves, crash counts, evaluation flight and final weights it
// left at 2c75f9e, where it was also pinned bit for bit to the synchronous
// act→store→train wrapper it replaced (deleted since). Hashes were captured
// there, for a frozen topology and for E2E.
func TestRunOnlineActorsOneGolden(t *testing.T) {
	skipOffAMD64(t)
	spec := nn.NavNetSpec()
	meta := env.IndoorMeta(51)
	snap, _ := MetaTrain(meta, spec, 40, fastOpts(51))
	for _, tc := range []struct {
		cfg          nn.Config
		run, weights string
	}{
		{nn.L3, "11c165e0c3b2f3f97ce82745336f6dfdcb41cf83e59e50010984caa0ab89bc3d", "b5660e8c7e74e98526969c5a55ab09cacd1e244dae2e85d0353c533dcefeb40a"},
		{nn.E2E, "bd43ae233272656fefa0ae4c6062732944b9d29f075aee22d3ba4799b8567f31", "b188caae974655f330343c545c83b53604a928a0cbebf60fc0f0c34aa859534c"},
	} {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			res, err := RunOnline(snap, env.IndoorApartment(52), spec, tc.cfg, 160, 80, fastOpts(53))
			if err != nil {
				t.Fatal(err)
			}
			if res.Actors != 1 || res.Publishes != 0 || res.PublishMJ != 0 {
				t.Errorf("single-actor run reports actors=%d publishes=%d energy=%v",
					res.Actors, res.Publishes, res.PublishMJ)
			}
			if got := onlineRunHash(res); got != tc.run {
				t.Errorf("single-actor run moved: trackers hash %s, want %s", got, tc.run)
			}
			// Result carries no agent, so the weights come from a twin run of
			// the same pieces RunOnline assembles.
			agent, err := Deploy(snap, spec, tc.cfg, fastOpts(53))
			if err != nil {
				t.Fatal(err)
			}
			loop, _ := BuildOnlineLoop(agent, env.IndoorApartment(52), spec, tc.cfg, 160, 53+7700)
			if _, err := loop.Run(context.Background(), 160); err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashTracker(h, loop.Tracker)
			var buf [4]byte
			for _, p := range agent.Net.Params() {
				for _, v := range p.W.Data() {
					binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
					h.Write(buf[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.weights {
				t.Errorf("single-actor run moved: training tracker and final weights hash %s, want %s", got, tc.weights)
			}
		})
	}
}

// TestRunOnlineAsyncActors runs the full transfer pipeline with a 4-actor
// fleet: the run completes, the tracker covers the whole step budget,
// policy snapshots are published, and the publish energy is charged to the
// right device — SRAM for a frozen topology, STT-MRAM for E2E.
func TestRunOnlineAsyncActors(t *testing.T) {
	spec := nn.NavNetSpec()
	meta := env.IndoorMeta(54)
	snap, _ := MetaTrain(meta, spec, 40, fastOpts(54))

	opts := fastOpts(55)
	opts.Actors = 4
	opts.SyncEvery = 4

	for _, tc := range []struct {
		cfg  nn.Config
		devs []string
	}{
		// L3's trained FC tail is SRAM-resident, so publishes never touch
		// the stack; E2E splits per layer — conv+FC1 pay the NVM write,
		// the buffer-resident FC tail stays at SRAM prices.
		{cfg: nn.L3, devs: []string{"SRAM"}},
		{cfg: nn.E2E, devs: []string{"SRAM", "STT-MRAM"}},
	} {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			world := env.IndoorApartment(56)
			res, err := RunOnline(snap, world, spec, tc.cfg, 240, 60, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Actors != 4 {
				t.Errorf("actors = %d, want 4", res.Actors)
			}
			if res.Training.Steps() != 240 {
				t.Errorf("training steps = %d, want 240", res.Training.Steps())
			}
			if res.Publishes == 0 {
				t.Fatal("no policy publishes in a 4-actor run")
			}
			if res.PublishMJ <= 0 || res.PublishLedger == nil {
				t.Fatal("publish energy not charged")
			}
			devs := res.PublishLedger.Devices()
			if len(devs) != len(tc.devs) {
				t.Fatalf("publish traffic charged to %v, want devices %v", devs, tc.devs)
			}
			for i, want := range tc.devs {
				if !strings.Contains(devs[i], want) {
					t.Errorf("publish traffic charged to %v, want devices %v", devs, tc.devs)
				}
				total := res.PublishLedger.Total(devs[i])
				if total.WriteBits <= 0 || total.ReadBits != 0 {
					t.Errorf("%s: publishes are pure writes, ledger says read %d / write %d bits",
						devs[i], total.ReadBits, total.WriteBits)
				}
				if total.WriteBits%int64(res.Publishes) != 0 {
					t.Errorf("%s: write bits %d not a multiple of %d publishes",
						devs[i], total.WriteBits, res.Publishes)
				}
			}
			if tc.cfg == nn.E2E {
				// The stack carries conv+FC1 — the overwhelming share.
				mram := res.PublishLedger.Total("STT-MRAM").WriteBits
				sram := res.PublishLedger.Total("SRAM").WriteBits
				if mram <= sram {
					t.Errorf("E2E publish: MRAM %d bits <= SRAM %d bits, want MRAM-dominant", mram, sram)
				}
			}
		})
	}
}

// TestRunOnlineContextCancel: cancelling the context aborts the online phase
// and reports context.Canceled.
func TestRunOnlineContextCancel(t *testing.T) {
	spec := nn.NavNetSpec()
	meta := env.IndoorMeta(57)
	snap, _ := MetaTrain(meta, spec, 30, fastOpts(57))
	opts := fastOpts(58)
	opts.Actors = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before it starts: the loop must notice immediately
	world := env.IndoorApartment(58)
	if _, err := RunOnlineContext(ctx, snap, world, spec, nn.L3, 10000, 10, opts); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

// The three snapshot failure modes of the deployment path must each surface
// a distinct, recognizable error: a corrupt gob stream, a snapshot from a
// different serialization layout version, and a snapshot whose architecture
// does not match the deployment spec.

func encodeSnapshot(t *testing.T, s *nn.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadSnapshotCorruptGob(t *testing.T) {
	spec := nn.NavNetSpec()
	raw := encodeSnapshot(t, nn.TakeSnapshot(spec.Build(), spec.Name))
	// A stream cut mid-message is a transport failure, not a poisoned
	// artifact: the distinct retryable sentinel (PR 7 refined the
	// classification; internal/nn's TestReadSnapshotTruncated sweeps the
	// cut points).
	truncated := append([]byte(nil), raw[:len(raw)/2]...)
	_, err := nn.ReadSnapshot(bytes.NewReader(truncated))
	if err == nil {
		t.Fatal("decoding a truncated snapshot must fail")
	}
	if !errors.Is(err, nn.ErrSnapshotTruncated) {
		t.Errorf("truncated stream should surface nn.ErrSnapshotTruncated: %v", err)
	}
	// A complete stream of the wrong shape is genuinely corrupt: the
	// decoding error, distinct from both truncation and versioning.
	var wrong bytes.Buffer
	if err := gob.NewEncoder(&wrong).Encode("not a snapshot"); err != nil {
		t.Fatal(err)
	}
	_, err = nn.ReadSnapshot(&wrong)
	if err == nil {
		t.Fatal("decoding a corrupt snapshot must fail")
	}
	if !strings.Contains(err.Error(), "decoding snapshot") {
		t.Errorf("corrupt-gob error should say it failed decoding: %v", err)
	}
	if errors.Is(err, nn.ErrSnapshotTruncated) || strings.Contains(err.Error(), "version") {
		t.Errorf("corrupt-gob error must be distinct from truncation and version errors: %v", err)
	}
}

func TestReadSnapshotWrongVersion(t *testing.T) {
	spec := nn.NavNetSpec()
	s := nn.TakeSnapshot(spec.Build(), spec.Name)
	s.Version = nn.SnapshotVersion + 1
	// Encode refuses to write a foreign version — that is itself part of the
	// contract — so build the byte stream with the raw gob encoder.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	_, err := nn.ReadSnapshot(&buf)
	if err == nil {
		t.Fatal("decoding a foreign-version snapshot must fail")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("version error should name the version mismatch: %v", err)
	}
	if !strings.Contains(err.Error(), "retake the snapshot") {
		t.Errorf("version error should tell the operator what to do: %v", err)
	}
}

func TestDeployMismatchedArchSpec(t *testing.T) {
	spec := nn.NavNetSpec()
	// Same architecture name, different layer shapes: Restore must reject
	// the size mismatch instead of silently truncating weights.
	other := spec
	other.FCs = append([]nn.FCSpec(nil), spec.FCs...)
	other.FCs[1] = nn.FCSpec{Name: spec.FCs[1].Name, In: spec.FCs[1].In, Out: spec.FCs[1].Out * 2}
	other.FCs[2] = nn.FCSpec{Name: spec.FCs[2].Name, In: spec.FCs[2].In * 2, Out: spec.FCs[2].Out}
	snap := nn.TakeSnapshot(other.Build(), spec.Name)
	_, err := Deploy(snap, spec, nn.L3, rl.Options{Seed: 1})
	if err == nil {
		t.Fatal("deploying a mis-shaped snapshot must fail")
	}
	if !strings.Contains(err.Error(), "values, want") {
		t.Errorf("arch-mismatch error should name the size mismatch: %v", err)
	}
	if strings.Contains(err.Error(), "version") || strings.Contains(err.Error(), "decoding") {
		t.Errorf("arch-mismatch error must be distinct from the gob and version errors: %v", err)
	}
}

// TestRunOnlineInProcessGolden pins a seeded single-actor L3 run through
// RunOnline: it leaves the trackers the single-actor schedule left at
// 2c75f9e (hash captured there, where the run was also compared with the
// since deleted synchronous wrapper).
func TestRunOnlineInProcessGolden(t *testing.T) {
	skipOffAMD64(t)
	spec := nn.NavNetSpec()
	meta := env.IndoorMeta(61)
	snap, _ := MetaTrain(meta, spec, 40, fastOpts(61))

	res, err := RunOnline(snap, env.IndoorApartment(62), spec, nn.L3, 160, 80, fastOpts(63))
	if err != nil {
		t.Fatal(err)
	}
	const want = "ed1f5ceaf3d31c9d43d39afba90779e39f4cc52b5072ef9538b5a2825ddf14f0"
	if got := onlineRunHash(res); got != want {
		t.Errorf("in-process run moved: trackers hash %s, want %s", got, want)
	}
}
