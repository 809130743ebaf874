package transfer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

// TestMetaTrainGolden pins meta-training bit for bit: for two seeds, the
// snapshot's every weight word and the tracker's series and counters must be
// what they were at 23ffca2, where MetaTrain still ran its own serial
// act→store→train loop. Hashes were captured there, before that loop was
// folded into the online loop.
func TestMetaTrainGolden(t *testing.T) {
	skipOffAMD64(t)
	want := map[int64]string{
		61: "c9d18779c89e09d0ac67faa7dd8d012fa2981a46651db9477c55f8254a55e006",
		62: "54cb729bff6d3409ba4dd4d122f2fc57c26cb33b50c8f33ca487acce5416081f",
	}
	for _, seed := range []int64{61, 62} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			snap, tracker := MetaTrain(env.IndoorMeta(seed), nn.NavNetSpec(), 120, rl.Options{
				Seed: seed, BatchSize: 4, EpsDecaySteps: 60, ReplayCapacity: 256,
			})
			h := sha256.New()
			var buf [4]byte
			for i, data := range snap.Data {
				h.Write([]byte(snap.Names[i]))
				for _, v := range data {
					binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
					h.Write(buf[:])
				}
			}
			hashTracker(h, tracker)
			if got := hex.EncodeToString(h.Sum(nil)); got != want[seed] {
				t.Errorf("meta-training moved: snapshot and tracker hash %s, want %s", got, want[seed])
			}
		})
	}
}
