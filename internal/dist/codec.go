package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	Arch    string
	ActorID uint64
}

// welcomeMsg answers a hello: the assigned slot, the learner's global
// env-step count (the actor's epsilon base), the exploration schedule and
// the training topology (so the actor freezes the same prefix the learner
// trains — trainable-region publishes then install cleanly). Features says
// whether the learner trains on boundary features: then a row that carries
// them ships them instead of its frames. A learner that reads frames — it
// trains every layer, or its train backend stacks the frames itself — gets
// frames.
type welcomeMsg struct {
	ActorID       uint64
	EnvSteps      int64
	EpsStart      float64
	EpsEnd        float64
	EpsDecaySteps int
	Config        nn.Config
	Resumed       bool
	Features      bool
}

// Handshake payloads are fixed-layout and little-endian, like the
// transition batch:
//
//	hello:   u32 proto | u64 actor id | u16 len | arch
//	welcome: u64 actor id | i64 env steps | f64 eps start | f64 eps end |
//	         i64 eps decay steps | u8 config | u8 flags (bit0 resumed, bit1 features)
//
// The proto word leads the hello in every revision, so a peer of any other
// revision — the gob hellos of revisions 1 to 3 included — fails on it
// before the rest is read.
const (
	helloFixedLen = 4 + 8 + 2
	welcomeLen    = 8 + 8 + 8 + 8 + 8 + 1 + 1
)

const (
	welcomeResumed = 1 << iota
	welcomeFeatures
	welcomeFlagsKnown = welcomeFeatures<<1 - 1
)

// appendHello appends a hello payload of this build's wire revision.
func appendHello(dst []byte, h helloMsg) ([]byte, error) {
	if len(h.Arch) > math.MaxUint16 {
		return dst, fmt.Errorf("dist: architecture name of %d bytes", len(h.Arch))
	}
	dst = binary.LittleEndian.AppendUint32(dst, protoVersion)
	dst = binary.LittleEndian.AppendUint64(dst, h.ActorID)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(h.Arch)))
	return append(dst, h.Arch...), nil
}

// decodeHello parses a hello payload. A hello of another wire revision and
// a malformed one both report ErrFrameCorrupt: the learner refuses either.
func decodeHello(p []byte) (helloMsg, error) {
	if len(p) < 4 {
		return helloMsg{}, fmt.Errorf("%w: hello of %d bytes", ErrFrameCorrupt, len(p))
	}
	if proto := binary.LittleEndian.Uint32(p); proto != protoVersion {
		return helloMsg{}, fmt.Errorf("%w: hello speaks wire revision %d, this build %d", ErrFrameCorrupt, proto, protoVersion)
	}
	if len(p) < helloFixedLen || len(p) != helloFixedLen+int(binary.LittleEndian.Uint16(p[12:])) {
		return helloMsg{}, fmt.Errorf("%w: hello of %d bytes", ErrFrameCorrupt, len(p))
	}
	return helloMsg{ActorID: binary.LittleEndian.Uint64(p[4:]), Arch: string(p[helloFixedLen:])}, nil
}

// appendWelcome appends a welcome payload.
func appendWelcome(dst []byte, w welcomeMsg) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, w.ActorID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.EnvSteps))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.EpsStart))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w.EpsEnd))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(w.EpsDecaySteps))
	var flags byte
	if w.Resumed {
		flags |= welcomeResumed
	}
	if w.Features {
		flags |= welcomeFeatures
	}
	return append(dst, byte(w.Config), flags)
}

// decodeWelcome parses a welcome payload; a wrong length, an unknown
// topology or an unknown flag bit is ErrFrameCorrupt.
func decodeWelcome(p []byte) (welcomeMsg, error) {
	if len(p) != welcomeLen {
		return welcomeMsg{}, fmt.Errorf("%w: welcome of %d bytes, want %d", ErrFrameCorrupt, len(p), welcomeLen)
	}
	cfg, flags := nn.Config(p[40]), p[41]
	if !slices.Contains(nn.Configs, cfg) || flags&^welcomeFlagsKnown != 0 {
		return welcomeMsg{}, fmt.Errorf("%w: welcome topology %d, flags %#x", ErrFrameCorrupt, p[40], flags)
	}
	decay := int64(binary.LittleEndian.Uint64(p[32:]))
	if int64(int(decay)) != decay {
		return welcomeMsg{}, fmt.Errorf("%w: welcome epsilon decay of %d steps", ErrFrameCorrupt, decay)
	}
	return welcomeMsg{
		ActorID:       binary.LittleEndian.Uint64(p[0:]),
		EnvSteps:      int64(binary.LittleEndian.Uint64(p[8:])),
		EpsStart:      math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
		EpsEnd:        math.Float64frombits(binary.LittleEndian.Uint64(p[24:])),
		EpsDecaySteps: int(decay),
		Config:        cfg,
		Resumed:       flags&welcomeResumed != 0,
		Features:      flags&welcomeFeatures != 0,
	}, nil
}

// encodeSnapshotFrame builds a snapshot payload: a full/trainable flag, the
// publish version, then the nn.Snapshot weight image (the same bytes the
// serving daemon's hot reload and the drone's meta-model file carry).
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

// decodeSnapshotFrame parses a snapshot payload, decoding the image where it
// lies. A short image surfaces the distinct nn.ErrSnapshotTruncated — a
// dropped connection mid-snapshot is a transport failure, never a zeroed
// network; any other refusal is ErrFrameCorrupt.
func decodeSnapshotFrame(payload []byte) (s *nn.Snapshot, version uint64, full bool, err error) {
	if len(payload) < 9 {
		return nil, 0, false, fmt.Errorf("%w: snapshot frame of %d bytes", ErrFrameCorrupt, len(payload))
	}
	full = payload[0] == 1
	version = binary.BigEndian.Uint64(payload[1:9])
	if s, err = nn.DecodeImage(payload[9:]); err != nil {
		if !errors.Is(err, nn.ErrSnapshotTruncated) {
			err = fmt.Errorf("%w: %w", ErrFrameCorrupt, err)
		}
		return nil, 0, false, err
	}
	return s, version, full, nil
}

// Experience is one environment step as it travels the wire: the replay
// transition plus the flight distance the learner's tracker wants. When the
// learner trains on boundary features, T.Feat and T.NextFeat carry the
// frozen prefix's activations of the two frames, computed once on the actor
// that captured them, instead of the frames, and TrainStep runs the
// trainable FC tail only. Otherwise (E2E, or a train backend that stacks
// frames) the row carries its frames.
type Experience struct {
	T    rl.Transition
	Dist float64
}

// Transition batch encoding, little-endian:
//
//	u16 count | u8 ndims | u32 dim... (shared observation shape, ndims 0 when no row carries a frame) |
//	u32 width (shared boundary-feature length, 0 when no row carries one)
//	per transition:
//	  u8 flags (bit0 done, bit1 has-next, bit2 has-feat, bit3 has-next-feat) |
//	  u16 action | f64 reward | f64 flight-distance |
//	  [f32*n state] | [f32*n next] | [f32*width feat] | [f32*width next-feat]
//
// Each state travels once: as its boundary feature (has-feat) or else as its
// frame. The next state travels as its feature (has-next-feat), as its frame
// (has-next), or not at all when the episode is done — never as both. A
// frame-only row is byte for byte the revision-3 row. The shape and width
// are shared because one actor's camera and training boundary never change
// mid-run; integrity is the enclosing frame's CRC. At L3 on NavNet a
// featured transition is 19 + 2·512 = 1 043 bytes, a frame-only one
// 19 + 2·4 096.
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

// wireRows picks the rows of one transition that travel, in wire order:
// state frame, next frame, feature, next feature. With features false the
// boundary features stay behind and only the frames go out.
func wireRows(t *rl.Transition, features bool) (rows [4]*tensor.Tensor) {
	if features {
		rows[2], rows[3] = t.Feat, t.NextFeat
	}
	if rows[2] == nil {
		rows[0] = t.State
	}
	if rows[3] == nil {
		rows[1] = t.Next
	}
	return rows
}

// appendExperience appends a batch as a frameTransitions payload. With
// features true every boundary feature a row carries travels in place of
// its frame; with features false only the frames go out. On error dst is
// returned as it came.
func appendExperience(dst []byte, batch []Experience, features bool) ([]byte, error) {
	if len(batch) == 0 || len(batch) > math.MaxUint16 {
		return dst, fmt.Errorf("dist: experience batch of %d (want 1..%d)", len(batch), math.MaxUint16)
	}
	// shape is the first travelling frame's; n and width are the lengths
	// every frame and feature row of the batch must share.
	var shape []int
	n, width := 0, 0
	size := 2 + 1 + 4
	for i := range batch {
		t := &batch[i].T
		rows := wireRows(t, features)
		if rows[0] == nil && rows[2] == nil {
			return dst, fmt.Errorf("dist: experience has neither a state nor its boundary feature")
		}
		if rows[1] == nil && rows[3] == nil && !t.Done {
			return dst, fmt.Errorf("dist: experience has nil Next but Done is false")
		}
		if t.Action < 0 || t.Action > math.MaxUint16 {
			return dst, fmt.Errorf("dist: action %d out of wire range", t.Action)
		}
		size += expFixedLen
		for j, r := range rows {
			switch {
			case r == nil:
				continue
			case j < 2:
				if shape == nil {
					shape, n = r.Shape(), r.Len()
				}
				if r.Len() != n {
					return dst, fmt.Errorf("dist: experience batch mixes observation shapes")
				}
			default:
				if width == 0 {
					width = r.Len()
				}
				if r.Len() != width || width == 0 {
					return dst, fmt.Errorf("dist: experience batch has boundary features of mixed or zero width")
				}
			}
			size += 4 * r.Len()
		}
	}
	size += 4 * len(shape)
	out := slices.Grow(dst, size)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(batch)))
	out = append(out, byte(len(shape)))
	for _, d := range shape {
		out = binary.LittleEndian.AppendUint32(out, uint32(d))
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(width))
	for i := range batch {
		e := &batch[i]
		rows := wireRows(&e.T, features)
		var flags byte
		if e.T.Done {
			flags |= expFlagDone
		}
		if rows[1] != nil {
			flags |= expFlagHasNext
		}
		if rows[2] != nil {
			flags |= expFlagHasFeat
		}
		if rows[3] != nil {
			flags |= expFlagHasNextFeat
		}
		out = append(out, flags)
		out = binary.LittleEndian.AppendUint16(out, uint16(e.T.Action))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(e.T.Reward))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(e.Dist))
		for _, row := range rows {
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
// inconsistency — short payload, absurd shape, a frame flagged under an
// empty shape or a feature under a zero width, a next state sent both ways,
// trailing garbage — reports ErrFrameCorrupt; the frame CRC already caught
// bit flips, so a failure here means the peer speaks a different dialect.
// Whether the rows fit the served network, and whether they are what this
// learner reads, is the learner's check, not the codec's.
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
	if count == 0 || ndims > 8 {
		return nil, fmt.Errorf("%w: experience batch count %d ndims %d", ErrFrameCorrupt, count, ndims)
	}
	// n is the frame length, 0 under the empty shape of a frameless batch.
	shape := make([]int, ndims)
	n := min(ndims, 1)
	for i := range shape {
		if b, err = take(4); err != nil {
			return nil, err
		}
		d := int(binary.LittleEndian.Uint32(b))
		if d <= 0 || d > 1<<20 {
			return nil, fmt.Errorf("%w: experience dim %d", ErrFrameCorrupt, d)
		}
		shape[i] = d
		if n *= d; n > 1<<24 {
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
			return nil, fmt.Errorf("%w: experience flags a row under an empty shape or width 0", ErrFrameCorrupt)
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
		hasNext, hasFeat, hasNextFeat := flags&expFlagHasNext != 0, flags&expFlagHasFeat != 0, flags&expFlagHasNextFeat != 0
		switch {
		case hasNext && hasNextFeat:
			return nil, fmt.Errorf("%w: experience sends its next state as frame and feature", ErrFrameCorrupt)
		case !hasNext && !hasNextFeat && !e.T.Done:
			return nil, fmt.Errorf("%w: live experience without next state", ErrFrameCorrupt)
		}
		if e.T.State, err = row(!hasFeat, n, shape); err != nil {
			return nil, err
		}
		if e.T.Next, err = row(hasNext, n, shape); err != nil {
			return nil, err
		}
		if e.T.Feat, err = row(hasFeat, width, featShape); err != nil {
			return nil, err
		}
		if e.T.NextFeat, err = row(hasNextFeat, width, featShape); err != nil {
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
