package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"testing"

	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {0x42}, bytes.Repeat([]byte{7}, 1000)}
	types := []byte{frameHello, frameWelcome, frameSnapshot, frameTransitions, frameHeartbeat, frameBye}
	for i, typ := range types {
		p := payloads[i%len(payloads)]
		if err := writeFrame(&buf, typ, p); err != nil {
			t.Fatalf("writeFrame(%d): %v", typ, err)
		}
	}
	for i, want := range types {
		typ, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame %d: %v", i, err)
		}
		if typ != want {
			t.Fatalf("frame %d: type %d, want %d", i, typ, want)
		}
		if wantP := payloads[i%len(payloads)]; !bytes.Equal(payload, wantP) {
			t.Fatalf("frame %d: payload %v, want %v", i, payload, wantP)
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestFrameTruncation cuts a valid frame at every possible byte offset: the
// reader must report ErrFrameTruncated each time (io.EOF only on the empty
// stream), never a mis-parse.
func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameTransitions, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := readFrame(bytes.NewReader(whole[:cut]))
		if !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("cut at %d: %v, want ErrFrameTruncated", cut, err)
		}
	}
	if _, _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

// TestFrameCorruption flips every byte of a valid frame in turn: the reader
// must reject each mutant (corrupt, truncated when the flipped length now
// promises more bytes than exist, or — if the length shrank — a corrupt
// first frame; never a silent success with wrong bytes).
func TestFrameCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameSnapshot, []byte("precious weights")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for i := range whole {
		mut := append([]byte(nil), whole...)
		mut[i] ^= 0x40
		typ, payload, err := readFrame(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at %d: parsed type %d payload %q from corrupt frame", i, typ, payload)
		}
		if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("flip at %d: unexpected error %v", i, err)
		}
	}
}

func TestFrameLengthBounds(t *testing.T) {
	// Implausibly small and large length prefixes must be rejected before
	// any allocation.
	for _, hdr := range [][]byte{
		{0, 0, 0, 0},
		{0, 0, 0, 4},
		{0xff, 0xff, 0xff, 0xff},
	} {
		if _, _, err := readFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("header %v: %v, want ErrFrameCorrupt", hdr, err)
		}
	}
}

func obsTensor(seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, 2*5*5)
	for i := range data {
		data[i] = rng.Float32()
	}
	return tensor.FromSlice(data, 2, 5, 5)
}

// featTensor is a boundary-feature row of the given width.
func featTensor(seed int64, width int) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, width)
	for i := range data {
		data[i] = rng.Float32() - 0.5
	}
	return tensor.FromSlice(data, width)
}

// sameRow reports whether two optional f32 rows are both absent or carry the
// same bits.
func sameRow(a, b *tensor.Tensor) bool {
	if a == nil || b == nil {
		return a == b
	}
	return bytes.Equal(f32bytes(a.Data()), f32bytes(b.Data()))
}

func f32bytes(v []float32) []byte {
	return appendF32(nil, v)
}

// codecBatches are the three shapes a flush can take: frames only (E2E, or
// features withheld), every row with both features (the steady state under
// a transfer topology), and a mix (a backlog stripped at an adoption flushed
// together with fresh rows).
func codecBatches() map[string][]Experience {
	plain := []Experience{
		{T: rl.Transition{State: obsTensor(1), Action: 2, Reward: -0.25, Next: obsTensor(2)}, Dist: 1.5},
		{T: rl.Transition{State: obsTensor(3), Action: 0, Reward: 1.0, Done: true}, Dist: 0},
		{T: rl.Transition{State: obsTensor(4), Action: 6, Reward: -1, Next: obsTensor(5), Done: true}, Dist: 7.25},
	}
	featured := make([]Experience, len(plain))
	mixed := make([]Experience, len(plain))
	for i, e := range plain {
		e.T.Feat, e.T.NextFeat = featTensor(int64(10+i), 6), featTensor(int64(20+i), 6)
		featured[i] = e
		mixed[i] = e
	}
	mixed[0].T.Feat, mixed[0].T.NextFeat = nil, nil
	mixed[1].T.NextFeat = nil
	return map[string][]Experience{"frames": plain, "features": featured, "mixed": mixed}
}

func TestExperienceCodecRoundTrip(t *testing.T) {
	for name, batch := range codecBatches() {
		for _, features := range []bool{true, false} {
			payload, err := appendExperience(nil, batch, features)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := decodeExperience(payload)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(batch) {
				t.Fatalf("%s: decoded %d transitions, want %d", name, len(got), len(batch))
			}
			for i, e := range got {
				// A boundary feature travels instead of its frame; without
				// features only the frames go out.
				want := batch[i]
				switch {
				case !features:
					want.T.Feat, want.T.NextFeat = nil, nil
				default:
					if want.T.Feat != nil {
						want.T.State = nil
					}
					if want.T.NextFeat != nil {
						want.T.Next = nil
					}
				}
				if e.T.Action != want.T.Action || e.T.Reward != want.T.Reward ||
					e.T.Done != want.T.Done || e.Dist != want.Dist {
					t.Fatalf("%s transition %d: %+v, want %+v", name, i, e, want)
				}
				if !sameRow(e.T.State, want.T.State) || !sameRow(e.T.Next, want.T.Next) {
					t.Fatalf("%s transition %d: frames differ", name, i)
				}
				if !sameRow(e.T.Feat, want.T.Feat) || !sameRow(e.T.NextFeat, want.T.NextFeat) {
					t.Fatalf("%s transition %d (features %v): boundary features differ", name, i, features)
				}
			}
		}
	}
	// Appending after existing bytes leaves them alone.
	prefix := []byte{0xAA, 0xBB}
	out, err := appendExperience(prefix, codecBatches()["features"], true)
	if err != nil || !bytes.Equal(out[:2], prefix) {
		t.Fatalf("append onto a prefix: %v, head %x", err, out[:2])
	}
	if _, err := decodeExperience(out[2:]); err != nil {
		t.Fatalf("payload appended after a prefix: %v", err)
	}
}

func TestExperienceCodecRejectsDamage(t *testing.T) {
	// Truncations at every offset and trailing garbage must all fail with
	// ErrFrameCorrupt — the CRC layer already passed, so structural checks
	// are the last line against a dialect mismatch.
	for name, batch := range codecBatches() {
		payload, err := appendExperience(nil, batch[:1], true)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decodeExperience(payload[:cut]); !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("%s cut at %d: %v, want ErrFrameCorrupt", name, cut, err)
			}
		}
		if _, err := decodeExperience(append(append([]byte(nil), payload...), 0xEE)); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("%s trailing byte: %v, want ErrFrameCorrupt", name, err)
		}
	}

	// The header of this payload is count(2) ndims(1) width(4): its one row
	// travels as features only, so no dims follow ndims 0. The row's flags
	// byte comes next.
	const widthAt, flagsAt = 2 + 1, 2 + 1 + 4
	featured, err := appendExperience(nil, codecBatches()["features"][:1], true)
	if err != nil {
		t.Fatal(err)
	}
	if featured[2] != 0 || featured[flagsAt] != expFlagHasFeat|expFlagHasNextFeat {
		t.Fatalf("featured row: ndims %d, flags %#x; want a frameless row", featured[2], featured[flagsAt])
	}
	damage := map[string]func(p []byte){
		// A feature flag under width 0 promises a row of nothing.
		"zero width with feature flag": func(p []byte) { binary.LittleEndian.PutUint32(p[widthAt:], 0) },
		// A wider width than was sent runs the feature rows off the end...
		"short feature rows": func(p []byte) { binary.LittleEndian.PutUint32(p[widthAt:], 7) },
		// ...and a narrower one leaves bytes over.
		"long feature rows": func(p []byte) { binary.LittleEndian.PutUint32(p[widthAt:], 5) },
		"absurd width":      func(p []byte) { binary.LittleEndian.PutUint32(p[widthAt:], 1<<30) },
		"unknown flag bit":  func(p []byte) { p[flagsAt] |= 0x80 },
		// Dropping a feature flag orphans its row.
		"feature row without its flag": func(p []byte) { p[flagsAt] &^= expFlagHasNextFeat },
		// Without has-feat the state is a frame, and the shape is empty.
		"frame under an empty shape": func(p []byte) { p[flagsAt] &^= expFlagHasFeat },
		// The next state travels one way, never both.
		"next state as frame and feature": func(p []byte) { p[flagsAt] |= expFlagHasNext },
	}
	for name, hurt := range damage {
		p := append([]byte(nil), featured...)
		hurt(p)
		if _, err := decodeExperience(p); !errors.Is(err, ErrFrameCorrupt) {
			t.Errorf("%s: %v, want ErrFrameCorrupt", name, err)
		}
	}

	// What must not encode: a live transition without a next state, one
	// without a state, feature rows of two widths in one batch.
	if _, err := appendExperience(nil, []Experience{{T: rl.Transition{State: obsTensor(8)}}}, true); err == nil {
		t.Error("encoded live transition with nil Next")
	}
	if _, err := appendExperience(nil, []Experience{{T: rl.Transition{Next: obsTensor(8), NextFeat: featTensor(8, 6)}}}, true); err == nil {
		t.Error("encoded a transition with neither a state nor its feature")
	}
	twoWidths := codecBatches()["features"]
	twoWidths[1].T.Feat = featTensor(30, 5)
	if _, err := appendExperience(nil, twoWidths, true); err == nil {
		t.Error("encoded a batch mixing boundary-feature widths")
	}
	if _, err := appendExperience(nil, twoWidths, false); err != nil {
		t.Errorf("mixed widths must not matter when features stay behind: %v", err)
	}
}

// TestTransitionsFrameGoldenBytes pins one whole revision-4 transitions
// frame with boundary features, from length prefix to CRC — the features
// travel instead of the frames, so the shape is empty — and that the
// in-place builder the actor flushes through emits the same bytes
// writeFrame does for the same payload.
func TestTransitionsFrameGoldenBytes(t *testing.T) {
	batch := []Experience{{
		T: rl.Transition{
			State: tensor.FromSlice([]float32{1, -2}, 1, 1, 2), Action: 3, Reward: 0.5,
			Next: tensor.FromSlice([]float32{0.25, 4}, 1, 1, 2),
			Feat: tensor.FromSlice([]float32{8}, 1), NextFeat: tensor.FromSlice([]float32{-0.5}, 1),
		},
		Dist: 2,
	}}
	const golden = "00000027" + "04" + // length, frameTransitions
		"0100" + "00" + "01000000" + // count, ndims 0 (no frame travels), width 1
		"0c" + "0300" + "000000000000e03f" + "0000000000000040" + // has-feat|next-feat, action 3, 0.5, 2.0
		"00000041" + "000000bf" + // feat, next-feat
		"ac9c8725" // CRC-32 (IEEE) of type + payload, checked against zlib
	frame, err := appendExperience(beginFrame(nil, frameTransitions), batch, true)
	if err != nil {
		t.Fatal(err)
	}
	if frame, err = endFrame(frame); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != golden {
		t.Fatalf("frame bytes\n got %s\nwant %s", got, golden)
	}
	payload, err := appendExperience(nil, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	var viaWriter bytes.Buffer
	if err := writeFrame(&viaWriter, frameTransitions, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaWriter.Bytes(), frame) {
		t.Fatal("writeFrame and the in-place builder disagree on the frame bytes")
	}
	typ, back, err := readFrame(bytes.NewReader(frame))
	if err != nil || typ != frameTransitions || !bytes.Equal(back, payload) {
		t.Fatalf("readFrame of the golden frame: type %d, err %v", typ, err)
	}
}

// TestTransitionsFrameGoldenBytesFrameOnly pins a frame-only transitions
// frame: features withheld (an E2E learner, or the span between a reconnect
// and its snapshot's adoption), the state and next-state frames travel and
// the width word is 0. These bytes are the revision-3 encoding of the row,
// which every later revision keeps.
func TestTransitionsFrameGoldenBytesFrameOnly(t *testing.T) {
	batch := []Experience{{
		T: rl.Transition{
			State: tensor.FromSlice([]float32{1, -2}, 1, 1, 2), Action: 3, Reward: 0.5,
			Next: tensor.FromSlice([]float32{0.25, 4}, 1, 1, 2),
			Feat: tensor.FromSlice([]float32{8}, 1), NextFeat: tensor.FromSlice([]float32{-0.5}, 1),
		},
		Dist: 2,
	}}
	const golden = "0000003b" + "04" + // length, frameTransitions
		"0100" + "03" + "01000000" + "01000000" + "02000000" + "00000000" + // count, ndims, 1x1x2, width 0
		"02" + "0300" + "000000000000e03f" + "0000000000000040" + // has-next, action 3, 0.5, 2.0
		"0000803f" + "000000c0" + "0000803e" + "00008040" + // state, next
		"3ec30fb3" // CRC-32 (IEEE) of type + payload, checked against zlib
	frame, err := appendExperience(beginFrame(nil, frameTransitions), batch, false)
	if err != nil {
		t.Fatal(err)
	}
	if frame, err = endFrame(frame); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(frame); got != golden {
		t.Fatalf("frame bytes\n got %s\nwant %s", got, golden)
	}
}

// TestWireBytesPerTransition sizes one L3 NavNet transition on the wire.
// With boundary features it is the fixed fields and two feature rows, and
// at most 1 100 bytes; revision 3 sent the same transition as its two
// frames plus the two feature rows, over eight times as many bytes. A
// frame-only row is the fixed fields and the two frames.
func TestWireBytesPerTransition(t *testing.T) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.SetConfig(nn.L3)
	width := net.Layers[net.TrainFrom()].(*nn.Dense).In
	frame := func() *tensor.Tensor { return tensor.New(spec.InputC, spec.InputH, spec.InputW) }
	e := Experience{T: rl.Transition{
		State: frame(), Next: frame(), Action: 1, Reward: 0.5,
		Feat: featTensor(1, width), NextFeat: featTensor(2, width),
	}, Dist: 1}
	// encoded returns the payload of one transition and what each further
	// one adds to a batch: the row alone, without the batch header.
	encoded := func(features bool) (single, row int) {
		one, err := appendExperience(nil, []Experience{e}, features)
		if err != nil {
			t.Fatal(err)
		}
		two, err := appendExperience(nil, []Experience{e, e}, features)
		if err != nil {
			t.Fatal(err)
		}
		return len(one), len(two) - len(one)
	}
	single, featured := encoded(true)
	_, frames := encoded(false)
	n := e.T.State.Len()
	revision3 := frames + 2*4*width
	t.Logf("L3 NavNet transition: %d bytes with features (%d as a one-row batch), %d with frames only, %d in revision 3",
		featured, single, frames, revision3)
	if featured != expFixedLen+2*4*width || frames != expFixedLen+2*4*n {
		t.Fatalf("rows of %d and %d bytes, want %d with features and %d with frames",
			featured, frames, expFixedLen+2*4*width, expFixedLen+2*4*n)
	}
	if single > 1100 || featured > 1100 {
		t.Errorf("a featured transition takes %d bytes (%d as a batch of one), want at most 1100", featured, single)
	}
	if 8*featured > revision3 {
		t.Errorf("a featured transition takes %d bytes, over an eighth of revision 3's %d", featured, revision3)
	}
}

// TestSnapshotFrameTruncated proves a policy snapshot cut off mid-stream
// surfaces the shared nn.ErrSnapshotTruncated sentinel, the same error the
// serving daemon's hot reload reports — never a partial network.
func TestSnapshotFrameTruncated(t *testing.T) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	net.Init(rand.New(rand.NewSource(9)))
	snap := nn.TakeSnapshot(net, spec.Name)
	payload, err := encodeSnapshotFrame(snap, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	got, version, full, err := decodeSnapshotFrame(payload)
	if err != nil || version != 3 || !full {
		t.Fatalf("round trip: snap=%v version=%d full=%v err=%v", got != nil, version, full, err)
	}
	if _, _, _, err := decodeSnapshotFrame(payload[:len(payload)/2]); !errors.Is(err, nn.ErrSnapshotTruncated) {
		t.Fatalf("truncated snapshot: %v, want nn.ErrSnapshotTruncated", err)
	}
	if _, _, _, err := decodeSnapshotFrame(payload[:4]); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("header-short snapshot: %v, want ErrFrameCorrupt", err)
	}
	// A whole image with one flipped bit fails its CRC-32C: corrupt, not a
	// transfer to retry.
	flipped := bytes.Clone(payload)
	flipped[len(flipped)-5] ^= 1
	if _, _, _, err := decodeSnapshotFrame(flipped); !errors.Is(err, ErrFrameCorrupt) || errors.Is(err, nn.ErrSnapshotTruncated) {
		t.Fatalf("bit-flipped snapshot: %v, want ErrFrameCorrupt and not truncated", err)
	}
}
