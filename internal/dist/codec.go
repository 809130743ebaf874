package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"slices"

	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
)

// helloMsg opens a session. ActorID 0 asks for a fresh slot; a nonzero ID
// reclaims the slot a previous connection of the same actor held, so its
// replay shard keeps accumulating across reconnects.
type helloMsg struct {
	Proto   uint32
	Arch    string
	ActorID uint64
}

// welcomeMsg answers a hello: the assigned slot, the learner's global
// env-step count (the actor's epsilon base), the exploration schedule and
// the training topology (so the actor freezes the same prefix the learner
// trains — trainable-region publishes then install cleanly).
type welcomeMsg struct {
	ActorID       uint64
	EnvSteps      int64
	EpsStart      float64
	EpsEnd        float64
	EpsDecaySteps int
	Config        nn.Config
	Resumed       bool
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// encodeSnapshotFrame builds a snapshot payload: a full/trainable flag, the
// publish version, then the versioned nn.Snapshot gob (the same encoding the
// serving daemon's hot reload and the drone's meta-model download use).
func encodeSnapshotFrame(s *nn.Snapshot, version uint64, full bool) ([]byte, error) {
	var buf bytes.Buffer
	var flag byte
	if full {
		flag = 1
	}
	buf.WriteByte(flag)
	var vb [8]byte
	binary.BigEndian.PutUint64(vb[:], version)
	buf.Write(vb[:])
	if err := s.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeSnapshotFrame parses a snapshot payload. Truncated gobs surface the
// distinct nn.ErrSnapshotTruncated through nn.ReadSnapshot — a dropped
// connection mid-snapshot is a transport failure, never a zeroed network.
func decodeSnapshotFrame(payload []byte) (s *nn.Snapshot, version uint64, full bool, err error) {
	if len(payload) < 9 {
		return nil, 0, false, fmt.Errorf("%w: snapshot frame of %d bytes", ErrFrameCorrupt, len(payload))
	}
	full = payload[0] == 1
	version = binary.BigEndian.Uint64(payload[1:9])
	s, err = nn.ReadSnapshot(bytes.NewReader(payload[9:]))
	if err != nil {
		return nil, 0, false, err
	}
	return s, version, full, nil
}

// Experience is one environment step as it travels the wire: the replay
// transition plus the flight distance the learner's tracker wants. Under a
// transfer topology T.Feat and T.NextFeat carry the frozen prefix's boundary
// activations of the two frames, computed once on the actor that captured
// them, so the learner's TrainStep runs the trainable FC tail only. The
// frames travel too: an E2E learner trains on them, and a transition whose
// features were withheld falls back to the learner's own prefix pass, which
// is bit-identical.
type Experience struct {
	T    rl.Transition
	Dist float64
}

// Transition batch encoding, little-endian:
//
//	u16 count | u8 ndims | u32 dim... (shared observation shape) |
//	u32 width (shared boundary-feature length, 0 when no row carries one)
//	per transition:
//	  u8 flags (bit0 done, bit1 has-next, bit2 has-feat, bit3 has-next-feat) |
//	  u16 action | f64 reward | f64 flight-distance |
//	  f32*n state | [f32*n next] | [f32*width feat] | [f32*width next-feat]
//
// The shape and width are shared because one actor's camera and training
// boundary never change mid-run; integrity is the enclosing frame's CRC. At
// L3 on NavNet a transition is 8 KB of frames plus 1 KB of features.
const (
	expFlagDone = 1 << iota
	expFlagHasNext
	expFlagHasFeat
	expFlagHasNextFeat
	expFlagsKnown = expFlagHasNextFeat<<1 - 1
)

// expFixedLen is the fixed part of one encoded transition: flags, action,
// reward, flight distance.
const expFixedLen = 1 + 2 + 8 + 8

// appendExperience appends a batch as a frameTransitions payload. With
// features false the boundary features stay behind and only the frames go
// out. On error dst is returned as it came.
func appendExperience(dst []byte, batch []Experience, features bool) ([]byte, error) {
	if len(batch) == 0 || len(batch) > math.MaxUint16 {
		return dst, fmt.Errorf("dist: experience batch of %d (want 1..%d)", len(batch), math.MaxUint16)
	}
	// sent picks the feature rows of one transition that travel.
	sent := func(t *rl.Transition) [2]*tensor.Tensor {
		if !features {
			return [2]*tensor.Tensor{}
		}
		return [2]*tensor.Tensor{t.Feat, t.NextFeat}
	}
	shape := batch[0].T.State.Shape()
	n := batch[0].T.State.Len()
	width := 0
	size := 2 + 1 + 4*len(shape) + 4
	for i := range batch {
		t := &batch[i].T
		if t.State.Len() != n || (t.Next != nil && t.Next.Len() != n) {
			return dst, fmt.Errorf("dist: experience batch mixes observation shapes")
		}
		if t.Next == nil && !t.Done {
			return dst, fmt.Errorf("dist: experience has nil Next but Done is false")
		}
		if t.Action < 0 || t.Action > math.MaxUint16 {
			return dst, fmt.Errorf("dist: action %d out of wire range", t.Action)
		}
		size += expFixedLen + 4*n
		if t.Next != nil {
			size += 4 * n
		}
		for _, f := range sent(t) {
			if f == nil {
				continue
			}
			if width == 0 {
				width = f.Len()
			}
			if f.Len() != width || width == 0 {
				return dst, fmt.Errorf("dist: experience batch has boundary features of mixed or zero width")
			}
			size += 4 * width
		}
	}
	out := slices.Grow(dst, size)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(batch)))
	out = append(out, byte(len(shape)))
	for _, d := range shape {
		out = binary.LittleEndian.AppendUint32(out, uint32(d))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(width))
	for i := range batch {
		e := &batch[i]
		feats := sent(&e.T)
		var flags byte
		if e.T.Done {
			flags |= expFlagDone
		}
		if e.T.Next != nil {
			flags |= expFlagHasNext
		}
		if feats[0] != nil {
			flags |= expFlagHasFeat
		}
		if feats[1] != nil {
			flags |= expFlagHasNextFeat
		}
		out = append(out, flags)
		out = binary.LittleEndian.AppendUint16(out, uint16(e.T.Action))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(e.T.Reward))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(e.Dist))
		for _, row := range [4]*tensor.Tensor{e.T.State, e.T.Next, feats[0], feats[1]} {
			if row != nil {
				out = appendF32(out, row.Data())
			}
		}
	}
	return out, nil
}

// appendF32 appends src as little-endian f32 words: one grow, then a store
// per word into the reserved tail.
func appendF32(dst []byte, src []float32) []byte {
	at := len(dst)
	dst = slices.Grow(dst, 4*len(src))[:at+4*len(src)]
	tail := dst[at:]
	for i, v := range src {
		binary.LittleEndian.PutUint32(tail[4*i:], math.Float32bits(v))
	}
	return dst
}

// decodeExperience unpacks a frameTransitions payload. Every structural
// inconsistency — short payload, absurd shape, a feature flag under a zero
// width, trailing garbage — reports ErrFrameCorrupt; the frame CRC already
// caught bit flips, so a failure here means the peer speaks a different
// dialect. Whether the shapes fit the served network is the learner's check,
// not the codec's.
func decodeExperience(payload []byte) ([]Experience, error) {
	p := payload
	take := func(n int) ([]byte, error) {
		if len(p) < n {
			return nil, fmt.Errorf("%w: experience payload short by %d bytes", ErrFrameCorrupt, n-len(p))
		}
		b := p[:n]
		p = p[n:]
		return b, nil
	}
	b, err := take(3)
	if err != nil {
		return nil, err
	}
	count := int(binary.LittleEndian.Uint16(b[:2]))
	ndims := int(b[2])
	if count == 0 || ndims == 0 || ndims > 8 {
		return nil, fmt.Errorf("%w: experience batch count %d ndims %d", ErrFrameCorrupt, count, ndims)
	}
	shape := make([]int, ndims)
	n := 1
	for i := range shape {
		if b, err = take(4); err != nil {
			return nil, err
		}
		d := int(binary.LittleEndian.Uint32(b))
		if d <= 0 || d > 1<<20 {
			return nil, fmt.Errorf("%w: experience dim %d", ErrFrameCorrupt, d)
		}
		shape[i] = d
		n *= d
		if n > 1<<24 {
			return nil, fmt.Errorf("%w: experience observation of %d values", ErrFrameCorrupt, n)
		}
	}
	if b, err = take(4); err != nil {
		return nil, err
	}
	width := int(binary.LittleEndian.Uint32(b))
	if width > 1<<24 {
		return nil, fmt.Errorf("%w: experience boundary feature of %d values", ErrFrameCorrupt, width)
	}
	featShape := []int{width}
	// row reads one f32 row of n values, nil when it is absent.
	row := func(present bool, n int, shape []int) (*tensor.Tensor, error) {
		if !present {
			return nil, nil
		}
		if n == 0 {
			return nil, fmt.Errorf("%w: experience flags a boundary feature under width 0", ErrFrameCorrupt)
		}
		b, err := take(4 * n)
		if err != nil {
			return nil, err
		}
		return tensorFromBytes(b, shape), nil
	}
	out := make([]Experience, 0, count)
	for i := 0; i < count; i++ {
		if b, err = take(expFixedLen); err != nil {
			return nil, err
		}
		flags := b[0]
		if flags&^expFlagsKnown != 0 {
			return nil, fmt.Errorf("%w: experience flags %#x", ErrFrameCorrupt, flags)
		}
		e := Experience{T: rl.Transition{
			Action: int(binary.LittleEndian.Uint16(b[1:3])),
			Reward: math.Float64frombits(binary.LittleEndian.Uint64(b[3:11])),
			Done:   flags&expFlagDone != 0,
		}}
		e.Dist = math.Float64frombits(binary.LittleEndian.Uint64(b[11:19]))
		if flags&expFlagHasNext == 0 && !e.T.Done {
			return nil, fmt.Errorf("%w: live experience without next state", ErrFrameCorrupt)
		}
		if e.T.State, err = row(true, n, shape); err != nil {
			return nil, err
		}
		if e.T.Next, err = row(flags&expFlagHasNext != 0, n, shape); err != nil {
			return nil, err
		}
		if e.T.Feat, err = row(flags&expFlagHasFeat != 0, width, featShape); err != nil {
			return nil, err
		}
		if e.T.NextFeat, err = row(flags&expFlagHasNextFeat != 0, width, featShape); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after experience batch", ErrFrameCorrupt, len(p))
	}
	return out, nil
}

func tensorFromBytes(b []byte, shape []int) *tensor.Tensor {
	data := make([]float32, len(b)/4)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return tensor.FromSlice(data, shape...)
}
