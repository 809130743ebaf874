package dist

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

// CheckpointVersion is the checkpoint layout: one nn weight image. Layout 1,
// a gob stream with no checksum, is refused as ErrCheckpointCorrupt.
const CheckpointVersion = nn.SnapshotVersion

// ErrCheckpointCorrupt marks a checkpoint file that cannot be restored:
// truncated, failing its CRC-32C or its section table, or of another
// layout. Save's atomic write-rename never leaves a torn file, so in
// practice this is external damage or an older build's file.
var ErrCheckpointCorrupt = errors.New("dist: checkpoint corrupt")

// slotsSection is the counts section (nn.AddCounts) Save appends to the
// learner state: the next actor ID, then each actor ID and its shard.
const slotsSection = "slots"

// Checkpoint is the learner's durable resume point, the artifact the MRAM
// scratchpad makes cheap on the modeled hardware (Roy et al., PAPERS.md):
// the learner charges each Save to its energy ledger as NVM writes.
//
// Replay *contents* are deliberately not durable: actors resend from their
// local buffers after a learner restart. Persisting the cursors keeps the
// restart safe: the shard walk resumes where it stopped and push ordinals
// stay monotonic, so nothing sampled after it aliases a pre-crash entry.
type Checkpoint struct {
	// Image is the learner state as rl.Agent.Checkpoint captures it and
	// rl.Agent.Resume restores it: weights, clock and replay cursors.
	Image *nn.Snapshot
	// EnvSteps and TrainSteps are the clock LoadCheckpoint read in Image.
	EnvSteps, TrainSteps int64
	// Slots and NextActorID restore the learner's actor table, so actors
	// that outlive a learner crash reclaim their shard slots by ID when
	// they reconnect to the restarted learner.
	Slots       map[uint64]int
	NextActorID uint64
}

// Save writes the checkpoint as one weight image — Image, then the slots
// section — into a temporary file beside path, fsyncs it and renames it over
// path, so a crash leaves the previous complete checkpoint or the new one,
// never a torn file. It returns the image size in bytes for the ledger.
func (c *Checkpoint) Save(path string) (int64, error) {
	counts := []uint64{c.NextActorID}
	for _, id := range slices.Sorted(maps.Keys(c.Slots)) {
		counts = append(counts, id, uint64(c.Slots[id]))
	}
	img := *c.Image
	img.Names, img.Shapes, img.Data = slices.Clip(img.Names), slices.Clip(img.Shapes), slices.Clip(img.Data)
	img.AddCounts(slotsSection, counts)

	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return 0, fmt.Errorf("dist: creating checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = img.Encode(tmp)
	size, serr := tmp.Seek(0, io.SeekCurrent)
	if err = errors.Join(err, serr); err == nil {
		err = tmp.Sync()
	}
	if err = errors.Join(err, tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return 0, fmt.Errorf("dist: writing checkpoint: %w", err)
	}
	return size, nil
}

// LoadCheckpoint reads a checkpoint written by Save. A file that is not one
// — truncated, corrupt, an older layout — reports ErrCheckpointCorrupt
// wrapping the cause; a missing file reports the os.IsNotExist-compatible
// error unchanged so "no checkpoint yet" stays distinguishable from
// "checkpoint destroyed".
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b, err := io.ReadAll(io.LimitReader(f, 1<<30+1)) // nn refuses images over 1 GiB
	if err != nil {
		return nil, fmt.Errorf("dist: reading checkpoint: %w", err)
	}
	return readCheckpoint(b)
}

// readCheckpoint decodes one checkpoint image through nn.DecodeImage; every
// error wraps ErrCheckpointCorrupt.
func readCheckpoint(b []byte) (*Checkpoint, error) {
	img, err := nn.DecodeImage(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
	}
	last := len(img.Names) - 1
	counts, err := img.Counts(slotsSection)
	if err != nil || img.Names[last] != slotsSection || len(counts)%2 == 0 {
		return nil, fmt.Errorf("%w: no actor table of an odd count last (%d counts, %v)", ErrCheckpointCorrupt, len(counts), err)
	}
	c := &Checkpoint{Image: img, NextActorID: counts[0], Slots: make(map[uint64]int, len(counts)/2)}
	for i := 1; i < len(counts); i += 2 {
		c.Slots[counts[i]] = int(counts[i+1]) // NewLearner drops shards out of range
	}
	img.Names, img.Shapes, img.Data = img.Names[:last], img.Shapes[:last], img.Data[:last]
	if c.EnvSteps, c.TrainSteps, err = rl.CheckpointClock(img); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCheckpointCorrupt, err)
	}
	return c, nil
}
