package rl

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"dronerl/internal/nn"
)

func imageBytes(t *testing.T, s *nn.Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeRefusesBeforeWriting: an image Resume refuses — a non-finite
// target weight, a replay store of another shard count or none, a state
// section of another shape, a missing weight section, no target network —
// leaves the agent's weights, clock and shards as they were.
func TestResumeRefusesBeforeWriting(t *testing.T) {
	a := NewAgent(nn.NavNetSpec(), nn.L3, Options{Seed: 3})
	a.clock.env.Store(40)
	a.clock.train.Store(10)
	shards := NewReplayShards(2, 8)
	shards.PushTo(1, Transition{Action: 1, Done: true})
	cut := func(edit func(img *nn.Snapshot)) *nn.Snapshot {
		img := a.Checkpoint(shards)
		edit(img)
		return img
	}
	nonFinite := cut(func(img *nn.Snapshot) {
		last := len(img.Data) - 2 // the last target section, before the state
		img.Data[last] = append([]float32(nil), img.Data[last]...)
		img.Data[last][0] = float32(math.Inf(1))
	})
	for _, tc := range []struct {
		name   string
		img    *nn.Snapshot
		shards *ReplayShards
		is     error
	}{
		{"non-finite target weight", nonFinite, NewReplayShards(2, 8), nn.ErrSnapshotNonFinite},
		{"three shards", a.Checkpoint(shards), NewReplayShards(3, 8), nil},
		{"no shards", a.Checkpoint(nil), NewReplayShards(2, 8), nil},
		{"no target", NewAgent(nn.NavNetSpec(), nn.L3, Options{Seed: 5, TargetSync: -1}).Checkpoint(nil), nil, nil},
		{"state of two counts", cut(func(img *nn.Snapshot) {
			last := len(img.Names) - 1
			img.Names, img.Shapes, img.Data = img.Names[:last], img.Shapes[:last], img.Data[:last]
			img.AddCounts(stateSection, []uint64{40, 10})
		}), nil, nil},
		{"no online FC4 bias", cut(func(img *nn.Snapshot) {
			i := len(a.Net.Params()) - 1
			img.Names, img.Shapes, img.Data = append(img.Names[:i:i], img.Names[i+1:]...),
				append(img.Shapes[:i:i], img.Shapes[i+1:]...), append(img.Data[:i:i], img.Data[i+1:]...)
		}), nil, nil},
	} {
		b := NewAgent(nn.NavNetSpec(), nn.L3, Options{Seed: 4})
		before := imageBytes(t, b.Checkpoint(tc.shards))
		err := b.Resume(tc.img, tc.shards)
		if err == nil || tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: Resume said %v", tc.name, err)
		}
		if !bytes.Equal(imageBytes(t, b.Checkpoint(tc.shards)), before) {
			t.Errorf("%s: a refused image changed the agent", tc.name)
		}
	}
}
