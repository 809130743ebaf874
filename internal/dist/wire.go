// Package dist is the crash-tolerant distributed actor/learner pipeline:
// the scale-out of the PR 5 in-process loop past one process (ROADMAP item
// 2). Remote actors — separate goroutines, processes or machines — step
// private worlds and stream their experience to a central learner over
// TCP or unix sockets; the learner merges the streams into the existing
// rl.ReplayShards deterministic interleave, trains them with the in-process
// fleet's own learner loop (rl.Learner) and broadcasts its policy snapshots
// back as the same nn.Snapshot weight image the rest of the repo uses.
//
// The regime is the paper's: resource-constrained edge actors (drones)
// feeding a central learner over an unreliable link (Anwar & Raychowdhury,
// arXiv:1910.05547, make exactly this split for edge transfer learning:
// the frozen layers on the edge, the trainable ones off it). The wire
// carries that split. Under a transfer topology the meta-model below the
// training boundary is frozen, so the boundary activation of a camera frame
// is a constant: the drone that captured the frame runs the frozen prefix on
// it once — it needs the result to pick its own action anyway — and ships
// the activation instead of the frame, an eighth of the bytes at L3. The
// learner trains the FC tail on what arrives and never evaluates the prefix
// at all (rl.Agent.TrainStep's fully cached path), bit-identical to
// recomputing it from the frames, which is what it still does for any
// transition that arrives with frames instead. The learner says in its
// welcome whether it trains on features; one whose train backend stacks
// frames (quant-train) is sent frames.
//
// Failure is the design center, not an afterthought:
//
//   - Framing. Every message is a length-prefixed frame carrying a type
//     byte, a payload and a CRC-32 of both. A dropped connection can only
//     produce a short read (ErrFrameTruncated) or a checksum mismatch
//     (ErrFrameCorrupt) — never a silently mis-parsed transition or a
//     half-restored policy.
//   - Validation. The CRC vouches for the bytes, not for the peer. The
//     learner checks every decoded transition against the served network —
//     observation shape, action range, boundary-feature length, every value
//     finite, and the frames present when this learner reads frames —
//     before it enters a shard; a violation drops the session
//     (ErrFrameCorrupt, counted in LearnerStats.DropReasons) instead of
//     panicking the training loop or poisoning the weights.
//   - Feature provenance. A feature is only worth shipping if the learner's
//     prefix would have computed the same bits. After a reconnect hands the
//     actor a fresh full snapshot, it sends frames only until that snapshot
//     is installed, so no feature ever comes from a prefix the learner did
//     not send.
//   - Actor resilience. Actors keep flying when the learner is unreachable:
//     transitions buffer into a bounded local ring and replay on reconnect,
//     and reconnection runs exponential backoff with jitter so a rebooting
//     learner is not met by a thundering herd.
//   - Learner resilience. The learner heartbeats every connection and drops
//     the dead ones; training continues on the shards of the live actors. A
//     periodic checkpoint (atomic write-rename, charged to the energy
//     ledger as NVM writes — Roy et al.'s MRAM-scratchpad argument makes
//     durable snapshots cheap on this hardware) captures weights, clock and
//     replay cursors, and a restarted learner resumes from it with actors
//     reconnecting on their own.
//
// internal/dist/chaos injects the failures the design claims to survive:
// connections that drop, delay or truncate mid-frame, and harness helpers
// that kill and restart whole actors or the learner mid-run. The package
// tests run that harness under -race.
//
// Nothing in-process engages any of this: rl.OnlineLoop never opens a
// socket. A distributed run is NewLearner + RunActor, as the dronerl-learner
// and dronerl-actor commands wire them.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame types of the wire protocol.
const (
	// frameHello opens a session (actor → learner): protocol version,
	// architecture name and the actor's previously assigned ID (0 = new).
	frameHello byte = 1 + iota
	// frameWelcome answers a hello (learner → actor): assigned actor ID,
	// the learner's global env-step count, the exploration schedule, the
	// training topology and whether the learner trains on boundary features.
	frameWelcome
	// frameSnapshot carries a policy (learner → actor): a full-weight
	// snapshot right after welcome, trainable-region snapshots on every
	// publish thereafter.
	frameSnapshot
	// frameTransitions carries a batch of compactly encoded transitions
	// (actor → learner).
	frameTransitions
	// frameHeartbeat keeps an idle connection visibly alive in both
	// directions; the learner's heartbeats carry the global env-step count
	// so actors keep their epsilon schedule roughly synchronized.
	frameHeartbeat
	// frameBye announces a clean departure. From an actor: it finished its
	// share; its shard stays sampleable but no more experience is coming.
	// From the learner: the run completed, and the close that follows is
	// not an outage to reconnect through.
	frameBye
)

// protoVersion is the wire-protocol revision: 2 added boundary features to
// the transition batch and the learner's run-complete bye, 3 replaced the
// gob snapshot payload with the nn weight image, 4 sends a row's boundary
// features instead of its frames when the learner's welcome asks for them
// and replaced the gob hello and welcome with fixed little-endian layouts.
// Hellos carrying any other value are rejected at handshake so incompatible
// builds fail loudly instead of mis-framing each other's streams.
const protoVersion = 4

// maxFrame bounds a single frame. The largest legitimate frame is a full
// E2E policy snapshot (~tens of MB for the paper's network); 256 MB leaves
// headroom while keeping a corrupted length prefix from allocating the
// moon.
const maxFrame = 256 << 20

// Wire-protocol error sentinels. Both unwrap from every read-side failure
// of the respective kind, so connection handlers can distinguish "the link
// died mid-frame" (reconnect and retry) from "the peer sent garbage"
// (drop the peer).
var (
	// ErrFrameTruncated marks a frame cut short by a dropped connection: a
	// short read inside the header or payload.
	ErrFrameTruncated = errors.New("dist: frame truncated")
	// ErrFrameCorrupt marks a structurally invalid frame: CRC mismatch,
	// unknown type, or an implausible length prefix.
	ErrFrameCorrupt = errors.New("dist: frame corrupt")
)

// crcTable is the IEEE table shared by every frame checksum.
var crcTable = crc32.MakeTable(crc32.IEEE)

// A frame is a 4-byte big-endian length (covering type + payload + CRC), the
// type byte, the payload, and a CRC-32 of type and payload. beginFrame and
// endFrame build one in place around a payload the caller appends between
// them, so a sender that keeps its buffer encodes and frames without a copy.
//
// beginFrame starts a frame in dst's storage, discarding what dst held, with
// the length left blank for endFrame.
func beginFrame(dst []byte, typ byte) []byte {
	return append(dst[:0], 0, 0, 0, 0, typ)
}

// endFrame seals a frame begun by beginFrame: it fills in the length and
// appends the CRC.
func endFrame(buf []byte) ([]byte, error) {
	// The length word covers type + payload + CRC: the 4 bytes it occupies
	// itself stand in for the CRC still to come.
	n := len(buf)
	if n > maxFrame {
		return buf, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrFrameCorrupt, n, maxFrame)
	}
	binary.BigEndian.PutUint32(buf[0:4], uint32(n))
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[4:], crcTable)), nil
}

// frameBytes encodes one frame into a fresh buffer, so a broadcast encodes
// once for every receiver.
func frameBytes(typ byte, payload []byte) ([]byte, error) {
	return endFrame(append(beginFrame(make([]byte, 0, 4+1+len(payload)+4), typ), payload...))
}

// writeFrame emits one frame. Writes go out in one buffer so a concurrent
// writer on the same connection cannot interleave (callers still serialize
// writers per conn).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	buf, err := frameBytes(typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// readFrame reads one frame, verifying length plausibility and the CRC.
// Truncation (connection dropped mid-frame) surfaces as ErrFrameTruncated;
// corruption as ErrFrameCorrupt; a clean EOF between frames as io.EOF.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading header: %w", ErrFrameTruncated, err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 5 || n > maxFrame {
		return 0, nil, fmt.Errorf("%w: implausible frame length %d", ErrFrameCorrupt, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: reading body: %w", ErrFrameTruncated, err)
	}
	want := binary.BigEndian.Uint32(body[n-4:])
	if got := crc32.Checksum(body[:n-4], crcTable); got != want {
		return 0, nil, fmt.Errorf("%w: CRC %08x, want %08x", ErrFrameCorrupt, got, want)
	}
	typ = body[0]
	if typ < frameHello || typ > frameBye {
		return 0, nil, fmt.Errorf("%w: unknown frame type %d", ErrFrameCorrupt, typ)
	}
	return typ, body[1 : n-4], nil
}
