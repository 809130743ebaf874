package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrSnapshotTruncated marks a snapshot stream that ended before a complete
// gob message: a dropped connection mid-transfer, a partially written file,
// or a short read. It is distinct from a corrupt-but-complete stream so
// callers on flaky links (the serving daemon's hot reload, the distributed
// pipeline's wire protocol) can treat it as a retryable transport failure
// rather than a poisoned artifact. ReadSnapshot wraps it; no partial state
// ever escapes — the caller gets a nil snapshot, never a silently
// zero-weighted network.
var ErrSnapshotTruncated = errors.New("nn: snapshot stream truncated")

// ErrSnapshotNonFinite marks a snapshot holding a NaN or ±Inf weight. The
// vector kernels skip zero-activation rows, which equals the full reduction
// only for finite weights (0 x Inf is NaN, not 0), so Restore refuses such a
// snapshot whole.
var ErrSnapshotNonFinite = errors.New("nn: snapshot holds a non-finite weight")

// SnapshotVersion is the serialization layout this build writes and reads.
// ReadSnapshot rejects any other version so a future layout change fails
// loudly at load time instead of restoring garbage weights into a flying
// drone. Bump it whenever the encoded structure of Snapshot changes
// meaning.
const SnapshotVersion = 1

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
func TakeSnapshot(n *Network, arch string) *Snapshot {
	ps := n.Params()
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

// Encode serializes the snapshot with encoding/gob.
func (s *Snapshot) Encode(w io.Writer) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("nn: refusing to encode snapshot version %d (this build writes %d)",
			s.Version, SnapshotVersion)
	}
	return gob.NewEncoder(w).Encode(s)
}

// ReadSnapshot deserializes a snapshot written by Encode. Snapshots from a
// different layout version — including pre-versioning files, which decode
// as version 0 — are rejected.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		// gob reports a stream that ends mid-message as io.ErrUnexpectedEOF
		// (an empty stream as io.EOF); some readers in between re-wrap the
		// sentinel into a plain string, so match the message too.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
			strings.Contains(err.Error(), "unexpected EOF") {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotTruncated, err)
		}
		return nil, fmt.Errorf("nn: decoding snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("nn: snapshot version %d, this build reads %d — retake the snapshot with this build",
			s.Version, SnapshotVersion)
	}
	return &s, nil
}
