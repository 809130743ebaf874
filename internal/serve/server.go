package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dronerl/internal/hw"
	"dronerl/internal/mem"
	"dronerl/internal/nn"
)

// Sentinel errors of the admission path; the HTTP layer maps them to status
// codes.
var (
	// ErrQueueFull is returned when the bounded admission queue is at
	// capacity: the backpressure signal (HTTP 429).
	ErrQueueFull = errors.New("serve: inference queue full")
	// ErrClosed is returned once the server has shut down (HTTP 503).
	ErrClosed = errors.New("serve: server closed")
	// ErrBadObservation wraps observation-shape rejections (HTTP 400).
	ErrBadObservation = errors.New("serve: bad observation")
)

// Reply is one inference answer.
type Reply struct {
	// Action is the greedy action: the index of the maximal Q-value, first
	// max on ties (the tensor.ArgMax rule every other consumer uses).
	Action int `json:"action"`
	// Q holds the Q-values, one per action, owned by the caller.
	Q []float32 `json:"q"`
	// PolicyVersion is the PolicyBoard version the answer was computed
	// under.
	PolicyVersion uint64 `json:"policy_version"`
	// Batch is the size of the coalesced batch that carried this request —
	// observability for the batching behavior, never the answer.
	Batch int `json:"batch"`
}

// result is what travels back over a request's reply channel.
type result struct {
	rep Reply
	err error
}

// request is one admitted inference waiting for a worker.
type request struct {
	obs   []float32
	start time.Time
	reply chan result // buffered (cap 1): workers never block on delivery
}

// Server is the serving engine: admission queue, worker pool, policy board
// and ledgers. Build with New, then either drive it in-process
// (Start/Infer/Close) or as a daemon (Serve / Handler).
type Server struct {
	cfg     Config
	spec    nn.ArchSpec
	obsLen  int // values per observation: InputC*InputH*InputW
	actions int

	// master is the canonical policy copy reloads restore into before
	// publishing; reloadMu serializes reloads (workers never touch master).
	master   *nn.Network
	board    *nn.PolicyBoard
	reloadMu sync.Mutex

	// publishTraffic prices one policy publish (per-device snapshot write);
	// frameBits prices one request's camera frame on the off-chip link.
	publishTraffic []hw.PublishTraffic
	frameBits      int64
	dram           *mem.Device
	ledger         *mem.SyncLedger

	queue     chan *request
	quit      chan struct{} // closed by Close: workers drain and exit
	done      chan struct{} // closed when every worker has exited
	workers   []*worker
	startOnce sync.Once
	closeOnce sync.Once
	started   bool // set under startOnce, read by Close

	stats *stats
}

// New builds a Server from cfg: validates the configuration, restores and
// publishes the initial snapshot (same checks as a hot reload), and
// constructs the worker pool. Call Start (or Serve) to begin serving.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	spec := cfg.Spec
	s := &Server{
		cfg:       cfg,
		spec:      spec,
		obsLen:    spec.InputC * spec.InputH * spec.InputW,
		actions:   spec.FCs[len(spec.FCs)-1].Out,
		board:     nn.NewPolicyBoard(),
		frameBits: mem.FrameBytes(spec.InputH, spec.InputC) * 8,
		dram:      mem.DRAM(),
		ledger:    mem.NewSyncLedger(),
		queue:     make(chan *request, cfg.QueueDepth),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		stats:     newStats(cfg.MaxBatch),
	}
	s.publishTraffic = hw.NewModelFor(spec).SnapshotPublishTraffic(nn.E2E)

	// The master mirrors the published policy; E2E makes TrainableParams the
	// full parameter set, so PolicyBoard publishes carry every weight.
	s.master = spec.Build()
	s.master.SetConfig(nn.E2E)
	if err := s.installSnapshot(cfg.Snapshot); err != nil {
		return nil, err
	}

	for i := 0; i < cfg.Workers; i++ {
		w, err := newWorker(s, i)
		if err != nil {
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	return s, nil
}

// installSnapshot validates snap against the served architecture, restores
// it into the master and publishes the result — the shared body of New and
// Reload. Callers hold reloadMu (New has no contention yet).
func (s *Server) installSnapshot(snap *nn.Snapshot) error {
	if snap.Arch != "" && snap.Arch != s.spec.Name {
		return fmt.Errorf("serve: snapshot was taken from architecture %q, serving %q", snap.Arch, s.spec.Name)
	}
	if err := snap.Restore(s.master); err != nil {
		return fmt.Errorf("serve: rejecting snapshot: %w", err)
	}
	s.board.Publish(s.master, s.spec.Name)
	// Every publish pays the per-device snapshot write of the policy store.
	for _, t := range s.publishTraffic {
		s.ledger.Record(t.Device, mem.Write, t.Bits)
	}
	return nil
}

// Start launches the worker pool. Idempotent; Serve calls it for you.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		s.started = true
		exited := make(chan struct{}, len(s.workers))
		for _, w := range s.workers {
			go func(w *worker) {
				w.loop()
				exited <- struct{}{}
			}(w)
		}
		go func() {
			for range s.workers {
				<-exited
			}
			// Workers have drained the queue; fail anything that raced in
			// after the final drain so no caller waits forever.
			s.failQueued()
			close(s.done)
		}()
	})
}

// failQueued answers everything still queued with ErrClosed.
func (s *Server) failQueued() {
	for {
		select {
		case r := <-s.queue:
			r.reply <- result{err: ErrClosed}
		default:
			return
		}
	}
}

// Close stops admission, lets the workers drain every queued request, and
// returns once all of them have exited. In-flight requests complete
// normally; requests arriving after Close fail with ErrClosed. Idempotent;
// safe on a server that was never started.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	if !s.started {
		s.failQueued()
		return
	}
	<-s.done
}

// Infer runs one observation through the serving pipeline: admission
// (ErrQueueFull when the queue is at depth), coalescing into a worker's next
// batch, and the batched forward pass. It is the in-process twin of POST
// /v1/act and the path the HTTP handler itself uses.
func (s *Server) Infer(ctx context.Context, obs []float32) (Reply, error) {
	if len(obs) != s.obsLen {
		return Reply{}, s.errObsLen(len(obs))
	}
	select {
	case <-s.quit:
		return Reply{}, ErrClosed
	default:
	}
	r := &request{obs: obs, start: time.Now(), reply: make(chan result, 1)}
	select {
	case s.queue <- r:
	default:
		s.stats.reject()
		return Reply{}, ErrQueueFull
	}
	// The admitted frame crossed the off-chip link: charge it.
	s.ledger.Record(s.dram, mem.Read, s.frameBits)
	select {
	case res := <-r.reply:
		if res.err != nil {
			return Reply{}, res.err
		}
		s.stats.observe(time.Since(r.start))
		return res.rep, nil
	case <-ctx.Done():
		// The worker still answers into the buffered channel; nobody reads
		// it and it is collected with the request.
		return Reply{}, ctx.Err()
	}
}

// errObsLen is the refusal of an observation carrying n values.
func (s *Server) errObsLen(n int) error {
	return fmt.Errorf("%w: got %d values, want %d (%dx%dx%d)",
		ErrBadObservation, n, s.obsLen, s.spec.InputC, s.spec.InputH, s.spec.InputW)
}

// Reload validates a new snapshot and publishes it as the serving policy
// while requests are in flight: workers adopt it at their next batch
// boundary, so already-coalesced batches complete against the old policy and
// later batches see the new one. Returns the new policy version.
func (s *Server) Reload(snap *nn.Snapshot) (uint64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if err := s.installSnapshot(snap); err != nil {
		return s.board.Version(), err
	}
	s.stats.reloaded()
	return s.board.Version(), nil
}

// PolicyVersion returns the currently published policy version.
func (s *Server) PolicyVersion() uint64 { return s.board.Version() }

// PolicySnapshot returns a private copy of the currently published policy
// and its version (GET /v1/policy with a gob Accept, and the load
// generator's reload round-trip check).
func (s *Server) PolicySnapshot() (*nn.Snapshot, uint64) { return s.board.Snapshot() }
