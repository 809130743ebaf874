package nn

import (
	"sync"
	"sync/atomic"
)

// PolicyBoard is the publish/subscribe hand-off point between an online
// learner and its actors: the learner publishes the trainable region of its
// network as an nn.Snapshot, actors adopt the latest snapshot at episode
// boundaries. In the modeled hardware this is the double-buffered policy
// store the training engine writes and the inference engine reads — under
// the frozen-layer topologies it lives in the on-die SRAM next to the
// trained FC weights, under E2E it spills into the STT-MRAM stack and every
// publish pays the NVM write (charged by hw.Model.SnapshotPublishTraffic).
//
// The implementation is an atomic double buffer: Publish alternates between
// two preallocated Snapshot buffers and swaps the current-entry pointer
// atomically, so adopters always see either the previous or the new policy,
// never a mix. Each buffer carries its own read/write lock — adopters of the
// current buffer never block the publisher writing the other one; the
// publisher only waits if a straggling adopter still holds the buffer from
// two publishes ago.
type PolicyBoard struct {
	mu   sync.Mutex // serializes publishers and protects flip
	bufs [2]*boardEntry
	flip int
	cur  atomic.Pointer[boardEntry]
}

// boardEntry is one buffer of the pair: a snapshot, its monotonic version,
// and the lock that keeps recycling the buffer from tearing a reader.
type boardEntry struct {
	mu      sync.RWMutex
	snap    *Snapshot
	version uint64
}

// NewPolicyBoard returns an empty board; Version is 0 until the first
// Publish.
func NewPolicyBoard() *PolicyBoard { return &PolicyBoard{} }

// Publish captures the trainable parameters of net (every parameter under
// E2E, the trained FC tail under L2/L3/L4) into the board's next buffer and
// swaps it in atomically. It returns the new version, a monotonic counter
// starting at 1. The network's trainable topology must not change between
// publishes.
func (b *PolicyBoard) Publish(net *Network, arch string) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	ps := net.TrainableParams()
	e := b.bufs[b.flip]
	if e == nil {
		s := &Snapshot{Version: SnapshotVersion, Arch: arch}
		for _, p := range ps {
			s.Names = append(s.Names, p.Name)
			s.Shapes = append(s.Shapes, append([]int(nil), p.W.Shape()...))
			s.Data = append(s.Data, make([]float32, p.W.Len()))
		}
		e = &boardEntry{snap: s}
		b.bufs[b.flip] = e
	}
	if len(e.snap.Names) != len(ps) {
		panic("nn: PolicyBoard.Publish with a changed trainable topology")
	}
	var version uint64 = 1
	if cur := b.cur.Load(); cur != nil {
		version = cur.version + 1
	}
	// Recycling the older buffer: waits only for adopters still reading the
	// snapshot from two publishes ago.
	e.mu.Lock()
	for i, p := range ps {
		copy(e.snap.Data[i], p.W.Data())
	}
	e.version = version
	e.mu.Unlock()
	b.flip = 1 - b.flip
	b.cur.Store(e)
	return version
}

// Version returns the latest published version (0 before any Publish).
func (b *PolicyBoard) Version() uint64 {
	if e := b.cur.Load(); e != nil {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return e.version
	}
	return 0
}

// Adopt installs the latest published policy into dst's trainable
// parameters when a version newer than lastSeen is available, returning the
// version now installed and whether anything was copied. dst must share the
// publisher's architecture and trainable topology, and a policy holding a
// NaN or ±Inf is refused whole (Snapshot.RestoreTrainable). Adoption never
// blocks the publisher's next publish — only a publish trying to recycle the
// very buffer being read — and always installs one consistent published set,
// never a torn mix.
func (b *PolicyBoard) Adopt(dst *Network, lastSeen uint64) (uint64, bool, error) {
	e := b.cur.Load()
	if e == nil {
		return lastSeen, false, nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	// The entry may have been recycled (and re-versioned) between the load
	// and the lock; that only ever moves the version forward, so adopting
	// its content is still adopting a consistent published policy.
	if e.version == lastSeen {
		return lastSeen, false, nil
	}
	if err := e.snap.RestoreTrainable(dst); err != nil {
		return lastSeen, false, err
	}
	return e.version, true, nil
}

// Snapshot returns a private copy of the latest published snapshot and its
// version, nil and 0 before the first Publish.
func (b *PolicyBoard) Snapshot() (*Snapshot, uint64) {
	e := b.cur.Load()
	if e == nil {
		return nil, 0
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	s := &Snapshot{Version: e.snap.Version, Arch: e.snap.Arch}
	for i := range e.snap.Names {
		s.Names = append(s.Names, e.snap.Names[i])
		s.Shapes = append(s.Shapes, append([]int(nil), e.snap.Shapes[i]...))
		s.Data = append(s.Data, append([]float32(nil), e.snap.Data[i]...))
	}
	return s, e.version
}
