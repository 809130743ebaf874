package dist

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"dronerl/internal/rl"
	"dronerl/internal/tensor"
)

// FuzzFrameDecode feeds arbitrary byte streams to the wire framer. The
// contract under fuzz is the one the reconnect machinery depends on: any
// input yields a clean EOF, ErrFrameTruncated, ErrFrameCorrupt, or a valid
// frame that re-frames byte-identically — never a panic, never a frame of
// an unknown type. Seeds come from TestFrameCorruption's corpus shape: a
// valid frame, a flipped byte, and the implausible-length headers.
func FuzzFrameDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameSnapshot, []byte("precious weights")); err != nil {
		f.Fatal(err)
	}
	whole := buf.Bytes()
	f.Add(whole)
	flipped := append([]byte(nil), whole...)
	flipped[6] ^= 0x40
	f.Add(flipped)
	f.Add(whole[:len(whole)/2])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if typ < frameHello || typ > frameBye {
			t.Fatalf("accepted unknown frame type %d", typ)
		}
		var out bytes.Buffer
		if err := writeFrame(&out, typ, payload); err != nil {
			t.Fatalf("decoded frame failed to re-frame: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("re-framed bytes diverge from the wire bytes")
		}
	})
}

// FuzzExperienceDecode throws arbitrary payloads at the transition-batch
// decoder. Structural garbage must surface ErrFrameCorrupt without panic;
// an accepted batch must re-encode (the decoder may only hand the replay
// path transitions the encoder could have produced).
func FuzzExperienceDecode(f *testing.F) {
	state := tensor.New(1, 2, 2)
	next := tensor.New(1, 2, 2)
	for i := range state.Data() {
		state.Data()[i] = float32(i)
		next.Data()[i] = float32(i) * 0.5
	}
	feat := tensor.FromSlice([]float32{0.5, -0.5, 2}, 3)
	batch := []Experience{
		{T: rl.Transition{State: state, Action: 1, Reward: 0.25, Next: next, Feat: feat, NextFeat: feat}, Dist: 3.5},
		{T: rl.Transition{State: state, Action: 0, Reward: -1, Done: true, Feat: feat}, Dist: 0.5},
	}
	// v2 seeds: the same batch with its boundary features and stripped to
	// frames, so the mutator starts on both sides of every feature flag.
	valid, err := appendExperience(nil, batch, true)
	if err != nil {
		f.Fatal(err)
	}
	frames, err := appendExperience(nil, batch, false)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(frames)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{0, 0, 0})
	truncCount := append([]byte(nil), valid...)
	truncCount[0] = 0xff // count promises far more transitions than exist
	f.Add(truncCount)
	zeroWidth := append([]byte(nil), valid...)
	copy(zeroWidth[2+1+3*4:], []byte{0, 0, 0, 0}) // feature flags under width 0
	f.Add(zeroWidth)

	f.Fuzz(func(t *testing.T, payload []byte) {
		batch, err := decodeExperience(payload)
		if err != nil {
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if _, err := appendExperience(nil, batch, true); err != nil {
			t.Fatalf("decoded batch failed to re-encode: %v", err)
		}
	})
}
