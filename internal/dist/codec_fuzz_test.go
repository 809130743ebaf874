package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"dronerl/internal/nn"
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
	widthAt := 2 + 1 + 4*int(valid[2]) // after count, ndims and the dims
	zeroWidth := append([]byte(nil), valid...)
	copy(zeroWidth[widthAt:], []byte{0, 0, 0, 0}) // feature flags under width 0
	f.Add(zeroWidth)
	// v4 seeds: a row that travels as its features alone, and the same row
	// flagging its next state as both frame and feature.
	featOnly, err := appendExperience(nil, batch[:1], true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(featOnly)
	both := append([]byte(nil), featOnly...)
	both[2+1+4] |= expFlagHasNext // flags of the one row, after the empty shape and width
	f.Add(both)

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

// FuzzHandshakeDecode throws arbitrary payloads at the hello and welcome
// decoders, the first bytes a learner reads from an unauthenticated peer and
// an actor from whatever answered its dial. Garbage must surface
// ErrFrameCorrupt without panic, and an accepted payload must re-encode to
// exactly its own bytes: the fixed layouts have one encoding per message.
func FuzzHandshakeDecode(f *testing.F) {
	hello, err := appendHello(nil, helloMsg{Arch: "navnet", ActorID: 7})
	if err != nil {
		f.Fatal(err)
	}
	welcome := appendWelcome(nil, welcomeMsg{
		ActorID: 7, EnvSteps: 1234, EpsStart: 1, EpsEnd: 0.1, EpsDecaySteps: 500,
		Config: nn.L3, Resumed: true, Features: true,
	})
	f.Add(hello)
	f.Add(welcome)
	f.Add(hello[:len(hello)-1])
	f.Add(welcome[:len(welcome)-1])
	stale := append([]byte(nil), hello...)
	binary.LittleEndian.PutUint32(stale, 3)
	f.Add(stale)
	f.Add([]byte{0x2e, 0xff, 0x81, 0x03}) // the opening of a gob stream

	f.Fuzz(func(t *testing.T, payload []byte) {
		if h, err := decodeHello(payload); err != nil {
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("hello: unexpected error class: %v", err)
			}
		} else if back, err := appendHello(nil, h); err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("accepted hello %+v re-encodes to %x (%v), was %x", h, back, err, payload)
		}
		if w, err := decodeWelcome(payload); err != nil {
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("welcome: unexpected error class: %v", err)
			}
		} else if back := appendWelcome(nil, w); !bytes.Equal(back, payload) {
			t.Fatalf("accepted welcome %+v re-encodes to %x, was %x", w, back, payload)
		}
	})
}
