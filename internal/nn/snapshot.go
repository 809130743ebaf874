package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"
)

// ErrSnapshotTruncated marks a weight image that ended before its declared
// length: a dropped connection, a partly written file, a short read. It is
// distinct from a corrupt image so callers on flaky links (the serving
// daemon's hot reload, the dist wire) can retry the transfer rather than
// trust a poisoned artifact; no partial snapshot ever escapes.
var ErrSnapshotTruncated = errors.New("nn: snapshot stream truncated")

// ErrSnapshotCorrupt marks a whole image that fails its CRC or its section
// table. Resending the same bytes cannot help.
var ErrSnapshotCorrupt = errors.New("nn: snapshot image corrupt")

// ErrSnapshotNonFinite marks a snapshot holding a NaN or ±Inf weight. The
// vector kernels skip zero-activation rows, which equals the full reduction
// only for finite weights (0 x Inf is NaN, not 0), so Restore refuses such a
// snapshot whole.
var ErrSnapshotNonFinite = errors.New("nn: snapshot holds a non-finite weight")

// SnapshotVersion is the weight-image layout this build writes and reads;
// any other is refused at load time instead of restoring garbage weights
// into a flying drone. Layout 1 was encoding/gob, whose streams carry no
// magic and are refused the same way.
const SnapshotVersion = 2

// A weight image is the one byte form of a Snapshot (meta-model files, POST
// /v1/policy, dist handshakes and publishes): flat and sectioned like the
// paper's weights in STT-MRAM, and sealed. Little-endian throughout:
//
//	"DRNLWIMG" | u32 version | u32 sections | u64 total bytes | u16+arch |
//	per section: u16+name, u8 rank, u32 per dim, u64 offset, u64 words |
//	per section, zero-padded to a 64-byte offset: its float32 words |
//	u32 CRC-32C (Castagnoli) of everything before it
//
// Each section sits at the first aligned offset after the one before, so
// equal snapshots are equal bytes.
const (
	imageMagic = "DRNLWIMG"
	imageFixed = 24      // magic, version, section count, total bytes
	maxImage   = 1 << 30 // the paper's full network is ~225 MB of float32
	readChunk  = 4 << 20 // how far ReadSnapshot allocates ahead of arrived bytes
	imageAlign = 64
)

var (
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
	// hostLE: a little-endian host holds float32 words in the image's order.
	hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1
)

// Snapshot is a serializable copy of a network's weights, the artifact that
// is "downloaded to the drone" after meta-environment training (paper
// Section II.D step 1). Only parameter values are captured; gradients and
// architecture are not.
type Snapshot struct {
	// Version is the layout version, SnapshotVersion at creation.
	Version int
	// Arch names the architecture the weights belong to; Restore and
	// transfer.Deploy refuse snapshots taken from a different one.
	Arch   string
	Names  []string
	Shapes [][]int
	Data   [][]float32
}

// TakeSnapshot copies the current weights of n into a Snapshot labelled with
// the architecture name.
func TakeSnapshot(n *Network, arch string) *Snapshot { return paramSnapshot(n.Params(), arch) }

func paramSnapshot(ps []*Param, arch string) *Snapshot {
	s := &Snapshot{Version: SnapshotVersion, Arch: arch}
	for _, p := range ps {
		s.Names = append(s.Names, p.Name)
		s.Shapes = append(s.Shapes, append([]int(nil), p.W.Shape()...))
		s.Data = append(s.Data, append([]float32(nil), p.W.Data()...))
	}
	return s
}

// Restore writes the snapshot's weights into n. The parameter list must
// match by name and size and every value must be finite; everything is
// checked before anything is written, so an error leaves n untouched, never
// a partly restored network.
func (s *Snapshot) Restore(n *Network) error { return s.install(n.Params()) }

// RestoreTrainable writes a trainable-region snapshot — what PolicyBoard
// publishes, locally or over the wire — into n's trainable parameters, with
// Restore's checks: names, sizes and finiteness, all before any write.
func (s *Snapshot) RestoreTrainable(n *Network) error { return s.install(n.TrainableParams()) }

func (s *Snapshot) install(ps []*Param) error {
	if len(ps) != len(s.Names) || len(ps) != len(s.Data) {
		return fmt.Errorf("nn: snapshot has %d params (%d data rows), network has %d", len(s.Names), len(s.Data), len(ps))
	}
	for i, p := range ps {
		if p.Name != s.Names[i] {
			return fmt.Errorf("nn: snapshot param %d is %q, network expects %q", i, s.Names[i], p.Name)
		}
		if len(s.Data[i]) != p.W.Len() {
			return fmt.Errorf("nn: snapshot param %q has %d values, want %d", p.Name, len(s.Data[i]), p.W.Len())
		}
		for j, v := range s.Data[i] {
			if v-v != 0 { // NaN or ±Inf
				return fmt.Errorf("%w: param %q value %d is %v", ErrSnapshotNonFinite, p.Name, j, v)
			}
		}
	}
	for i, p := range ps {
		copy(p.W.Data(), s.Data[i])
		p.MarkChanged()
	}
	return nil
}

// AddCounts appends a section of at least one 64-bit count (a clock, a
// cursor, an ID) to s as two words each, low half first, bit for bit: state
// that travels with its weights. Restore refuses a snapshot holding one.
func (s *Snapshot) AddCounts(name string, counts []uint64) {
	d := make([]float32, 2*len(counts))
	for i, c := range counts {
		d[2*i], d[2*i+1] = math.Float32frombits(uint32(c)), math.Float32frombits(uint32(c>>32))
	}
	s.Names, s.Shapes, s.Data = append(s.Names, name), append(s.Shapes, []int{len(counts), 2}), append(s.Data, d)
}

// Counts returns the counts AddCounts put in s's section name.
func (s *Snapshot) Counts(name string) ([]uint64, error) {
	i := slices.Index(s.Names, name)
	if i < 0 || !slices.Equal(s.Shapes[i], []int{len(s.Data[i]) / 2, 2}) {
		return nil, fmt.Errorf("nn: snapshot has no counts section %q", name)
	}
	out, d := make([]uint64, len(s.Data[i])/2), s.Data[i]
	for j := range out {
		out[j] = uint64(math.Float32bits(d[2*j])) | uint64(math.Float32bits(d[2*j+1]))<<32
	}
	return out, nil
}

// Encode writes the snapshot as one weight image.
func (s *Snapshot) Encode(w io.Writer) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("nn: refusing to encode snapshot version %d (this build writes %d)",
			s.Version, SnapshotVersion)
	}
	if len(s.Shapes) != len(s.Names) || len(s.Data) != len(s.Names) {
		return fmt.Errorf("nn: snapshot has %d names, %d shapes and %d data rows", len(s.Names), len(s.Shapes), len(s.Data))
	}
	le := binary.LittleEndian
	img := le.AppendUint64(le.AppendUint32(le.AppendUint32([]byte(imageMagic), SnapshotVersion), uint32(len(s.Names))), 0)
	img = appendString(img, s.Arch)
	words, slots := 0, make([]int, len(s.Names))
	for i, name := range s.Names {
		if n, ok := shapeWords(s.Shapes[i]); !ok || n != len(s.Data[i]) {
			return fmt.Errorf("nn: snapshot param %q: shape %v does not hold its %d values", name, s.Shapes[i], len(s.Data[i]))
		}
		img = append(appendString(img, name), byte(len(s.Shapes[i])))
		for _, d := range s.Shapes[i] {
			img = le.AppendUint32(img, uint32(d))
		}
		slots[i] = len(img)
		img = append(img, make([]byte, 16)...) // offset and word count, set below
		words += len(s.Data[i])
	}
	img = slices.Grow(img, imageAlign*len(s.Data)+4*words+4)
	for i, d := range s.Data {
		at := alignImage(len(img))
		le.PutUint64(img[slots[i]:], uint64(at))
		le.PutUint64(img[slots[i]+8:], uint64(len(d)))
		img = append(img, make([]byte, at-len(img)+4*len(d))...)
		if hostLE {
			copy(img[at:], wordBytes(d))
		} else {
			for j, v := range d {
				le.PutUint32(img[at+4*j:], math.Float32bits(v))
			}
		}
	}
	le.PutUint64(img[16:], uint64(len(img)+4))
	_, err := w.Write(le.AppendUint32(img, crc32.Checksum(img, castagnoli)))
	return err
}

// ReadSnapshot reads one weight image from r and decodes it. A stream that
// ends early reports ErrSnapshotTruncated wrapping the read error, so a body
// limit or deadline behind r stays visible to errors.As and errors.Is.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	b := make([]byte, imageFixed)
	n, rerr := io.ReadFull(r, b)
	size, err := imageLen(b[:n])
	if errors.Is(err, ErrSnapshotTruncated) {
		return nil, fmt.Errorf("%w: %w", err, rerr)
	} else if err != nil {
		return nil, err
	}
	for len(b) < size {
		have := len(b)
		b = slices.Grow(b, min(size-have, readChunk))[:min(size, have+readChunk)]
		if n, err := io.ReadFull(r, b[have:]); err != nil {
			return nil, fmt.Errorf("%w: %d of %d bytes: %w", ErrSnapshotTruncated, have+n, size, err)
		}
	}
	return DecodeImage(b)
}

// DecodeImage decodes one weight image, the inverse of Encode, checking in
// order: magic and layout version; the byte count against the declared
// length (fewer is ErrSnapshotTruncated); the CRC-32C; the section table —
// each section in bounds, at its aligned place after the one before, holding
// exactly its shape's words (ErrSnapshotCorrupt otherwise). Nothing is
// allocated for a section before its bytes are known to be present.
// Finiteness and the fit to a network are Restore's checks.
func DecodeImage(b []byte) (*Snapshot, error) {
	size, err := imageLen(b)
	switch {
	case err != nil:
		return nil, err
	case len(b) < size:
		return nil, fmt.Errorf("%w: %d of %d bytes", ErrSnapshotTruncated, len(b), size)
	case len(b) > size:
		return nil, fmt.Errorf("%w: %d bytes after the image", ErrSnapshotCorrupt, len(b)-size)
	}
	le, end := binary.LittleEndian, size-4
	if got, want := crc32.Checksum(b[:end], castagnoli), le.Uint32(b[end:]); got != want {
		return nil, fmt.Errorf("%w: CRC-32C %08x, want %08x", ErrSnapshotCorrupt, got, want)
	}
	at := imageFixed
	take := func(n int) []byte { // the next n table bytes; zeros once past the end
		if at += n; at > end {
			return make([]byte, 8)
		}
		return b[at-n : at]
	}
	str := func() string { return string(take(int(le.Uint16(take(2))))) }
	s := &Snapshot{Version: SnapshotVersion, Arch: str()}
	count := int(le.Uint32(b[12:]))
	if count > end/23 { // a table entry takes at least 23 bytes
		return nil, fmt.Errorf("%w: %d sections in %d bytes", ErrSnapshotCorrupt, count, size)
	}
	slots := make([]uint64, 2*count) // each section's declared offset and words
	for i := 0; i < count; i++ {
		s.Names = append(s.Names, str())
		shape := make([]int, take(1)[0])
		for d := range shape {
			shape[d] = int(le.Uint32(take(4)))
		}
		s.Shapes = append(s.Shapes, shape)
		slots[2*i], slots[2*i+1] = le.Uint64(take(8)), le.Uint64(take(8))
		if n, ok := shapeWords(shape); !ok || uint64(n) != slots[2*i+1] {
			return nil, fmt.Errorf("%w: section %d holds %d words under shape %v", ErrSnapshotCorrupt, i, slots[2*i+1], shape)
		}
	}
	if at > end {
		return nil, fmt.Errorf("%w: section table overruns the image", ErrSnapshotCorrupt)
	}
	for i := 0; i < count; i++ {
		off, words := alignImage(at), slots[2*i+1]
		if off > end || slots[2*i] != uint64(off) || words > uint64(end-off)/4 ||
			slices.ContainsFunc(b[at:off], func(c byte) bool { return c != 0 }) {
			return nil, fmt.Errorf("%w: section %d is not at offset %d", ErrSnapshotCorrupt, i, off)
		}
		d := make([]float32, words)
		if hostLE {
			copy(wordBytes(d), b[off:])
		} else {
			for j := range d {
				d[j] = math.Float32frombits(le.Uint32(b[off+4*j:]))
			}
		}
		s.Data, at = append(s.Data, d), off+4*len(d)
	}
	if at != end {
		return nil, fmt.Errorf("%w: %d stray bytes before the CRC", ErrSnapshotCorrupt, end-at)
	}
	return s, nil
}

// imageLen vets the fixed header at the front of b and returns the declared
// image length. Too few bytes for the header are truncation when they begin
// like an image; bytes without the magic, such as a gob snapshot from an
// older build, are no image at all.
func imageLen(b []byte) (int, error) {
	if n := min(len(b), len(imageMagic)); string(b[:n]) != imageMagic[:n] {
		return 0, errors.New("nn: decoding snapshot: not a weight image — retake the snapshot with this build")
	}
	if len(b) < imageFixed {
		return 0, fmt.Errorf("%w: %d of %d header bytes", ErrSnapshotTruncated, len(b), imageFixed)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != SnapshotVersion {
		return 0, fmt.Errorf("nn: snapshot version %d, this build reads %d — retake the snapshot with this build",
			v, SnapshotVersion)
	}
	if size := binary.LittleEndian.Uint64(b[16:]); size >= imageFixed+6 && size <= maxImage {
		return int(size), nil
	}
	return 0, fmt.Errorf("%w: declared length %d", ErrSnapshotCorrupt, binary.LittleEndian.Uint64(b[16:]))
}

// shapeWords returns how many words a tensor of this shape holds, false for
// a shape no tensor has or one too large for any image.
func shapeWords(shape []int) (int, bool) {
	n := 1
	for _, d := range shape {
		if d < 1 || d > maxImage/4/n {
			return 0, false
		}
		n *= d
	}
	return n, len(shape) >= 1 && len(shape) <= math.MaxUint8
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(b, uint16(len(s))), s...)
}

func alignImage(n int) int { return (n + imageAlign - 1) &^ (imageAlign - 1) }

// wordBytes views w's storage as bytes in the host's byte order.
func wordBytes(w []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 4*len(w))
}
