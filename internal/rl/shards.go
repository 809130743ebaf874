package rl

import (
	"fmt"
	"math/rand"
	"sync"
)

// ReplaySource is the sampling side of an experience store. ReplayBuffer
// implements it for the single-threaded loop; ReplayShards implements it for
// the actor/learner pipeline. SampleInto must consume rng exactly like
// ReplayBuffer.SampleInto when there is a single shard, which is what keeps
// the deterministic mode's sampling stream identical to the serial path.
type ReplaySource interface {
	Len() int
	SampleInto(dst []Transition, n int, rng *rand.Rand) []Transition
}

// ReplayShards is a lock-aware sharded replay store: one ring-buffer shard
// per actor, each guarded by its own mutex, so actors never contend with
// each other — only, briefly, with the learner sampling their shard. The
// learner draws across shards with a deterministic interleave: a cursor
// walks the shards round-robin, skipping empty ones, and each draw samples
// uniformly inside the selected shard. With one shard the interleave
// degenerates to exactly ReplayBuffer's uniform sampling, same rng stream
// included.
type ReplayShards struct {
	shards []*ReplayBuffer
	mus    []sync.Mutex
	// pushes counts lifetime pushes per shard, part of the interleave
	// state a checkpoint persists (see Cursors).
	pushes []int64
	cursor int
}

// NewReplayShards builds n shards whose capacities sum to roughly the given
// total (each shard holds ceil(capacity/n)).
func NewReplayShards(n, capacity int) *ReplayShards {
	if n < 1 {
		panic("rl: replay shards need at least one shard")
	}
	per := (capacity + n - 1) / n
	if per < 1 {
		per = 1
	}
	s := &ReplayShards{
		shards: make([]*ReplayBuffer, n),
		mus:    make([]sync.Mutex, n),
		pushes: make([]int64, n),
	}
	for i := range s.shards {
		s.shards[i] = NewReplayBuffer(per)
	}
	return s
}

// Shards returns the shard count.
func (s *ReplayShards) Shards() int { return len(s.shards) }

// PushTo appends a transition to the given actor's shard.
func (s *ReplayShards) PushTo(shard int, t Transition) {
	s.mus[shard].Lock()
	s.shards[shard].Push(t)
	s.pushes[shard]++
	s.mus[shard].Unlock()
}

// Len returns the total number of stored transitions across all shards.
func (s *ReplayShards) Len() int {
	total := 0
	for i := range s.shards {
		s.mus[i].Lock()
		total += s.shards[i].Len()
		s.mus[i].Unlock()
	}
	return total
}

// Cursors returns the sampling cursor and a copy of the per-shard lifetime
// push counts — the replay-interleave state a resumable checkpoint persists.
// Restoring them into a fresh ReplayShards (RestoreCursors) makes the
// restarted learner's round-robin shard walk continue where the checkpointed
// one stopped, and keeps the lifetime push counts monotonic across the
// restart.
func (s *ReplayShards) Cursors() (cursor int, pushes []int64) {
	out := make([]int64, len(s.shards))
	for i := range s.shards {
		s.mus[i].Lock()
		out[i] = s.pushes[i]
		s.mus[i].Unlock()
	}
	return s.cursor, out
}

// RestoreCursors installs checkpointed interleave state taken by Cursors.
// The shard count must match the checkpointed one; the shards themselves
// start empty (replay contents are not durable — actors refill them on
// reconnect) but the walk order and push counts carry over.
func (s *ReplayShards) RestoreCursors(cursor int, pushes []int64) error {
	if len(pushes) != len(s.shards) {
		return fmt.Errorf("rl: checkpoint has %d replay shards, store has %d", len(pushes), len(s.shards))
	}
	if cursor < 0 || cursor > len(s.shards) {
		return fmt.Errorf("rl: checkpoint replay cursor %d out of range [0, %d]", cursor, len(s.shards))
	}
	for i := range s.shards {
		s.mus[i].Lock()
		s.pushes[i] = pushes[i]
		s.mus[i].Unlock()
	}
	s.cursor = cursor
	return nil
}

// SampleInto draws n transitions, appending to dst and returning the result.
// Shard selection is the deterministic round-robin interleave; the in-shard
// index is uniform from rng. It panics if every shard is empty, matching
// ReplayBuffer.
func (s *ReplayShards) SampleInto(dst []Transition, n int, rng *rand.Rand) []Transition {
	if len(s.shards) == 1 {
		// Single shard: delegate so the rng stream is exactly the
		// unsharded buffer's (one Intn per draw over the shard size).
		s.mus[0].Lock()
		dst = s.shards[0].SampleInto(dst, n, rng)
		s.mus[0].Unlock()
		return dst
	}
	for i := 0; i < n; i++ {
		drew := false
		for probe := 0; probe < len(s.shards); probe++ {
			idx := (s.cursor + probe) % len(s.shards)
			s.mus[idx].Lock()
			if sz := s.shards[idx].Len(); sz > 0 {
				dst = append(dst, s.shards[idx].buf[rng.Intn(sz)])
				s.mus[idx].Unlock()
				s.cursor = idx + 1
				drew = true
				break
			}
			s.mus[idx].Unlock()
		}
		if !drew {
			panic("rl: sampling from empty replay shards")
		}
	}
	return dst
}
