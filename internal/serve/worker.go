package serve

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/tensor"
)

// worker is one inference lane: a private replica of the policy network, its
// compiled backend, and the batch staging buffers. Workers pull from the
// shared queue, coalesce a batch, adopt any newer published policy at the
// batch boundary, and run the whole batch in one backend call.
type worker struct {
	s  *Server
	id int

	// mu is held while the backend runs and whenever its ledger is read;
	// /statsz takes it to merge per-worker device traffic mid-flight.
	mu      sync.Mutex
	net     *nn.Network
	backend nn.Backend
	version uint64

	batch []*request
	out   []float32 // copied Q-rows, MaxBatch*actions

	// arena backs the batch staging tensors: slot b-1 keeps a cached
	// (b, C, H, W) stack per batch size and slot MaxBatch the single-sample
	// (C, H, W) view, so the steady-state serve path allocates nothing no
	// matter how batch sizes vary under load (pinned by
	// TestWorkerStackZeroAlloc and BenchmarkServeWorkerRun).
	arena tensor.Arena
}

// newWorker builds the replica network, adopts the already-published initial
// policy, and compiles the backend over it.
func newWorker(s *Server, id int) (*worker, error) {
	w := &worker{s: s, id: id}
	w.net = s.spec.Build()
	w.net.SetConfig(nn.E2E)
	v, _, err := s.board.Adopt(w.net, 0)
	if err != nil {
		return nil, fmt.Errorf("serve: worker %d adopting initial policy: %w", id, err)
	}
	w.version = v
	w.backend, err = nn.NewBackendFor(s.cfg.Backend, w.net, s.spec, nn.E2E)
	if err != nil {
		return nil, fmt.Errorf("serve: worker %d building %q backend: %w", id, s.cfg.Backend, err)
	}
	w.batch = make([]*request, 0, s.cfg.MaxBatch)
	w.out = make([]float32, s.cfg.MaxBatch*s.actions)
	return w, nil
}

// stack returns the worker's reusable (b, C, H, W) staging tensor with the
// collected batch's observations copied in. Inference never retains its
// input, so the tensor is safely overwritten by the next batch of size b.
func (w *worker) stack(b int) *tensor.Tensor {
	sp := w.s.spec
	t := w.arena.Get(b-1, b, sp.InputC, sp.InputH, sp.InputW)
	d := t.Data()
	n := w.s.obsLen
	for i, r := range w.batch[:b] {
		copy(d[i*n:(i+1)*n], r.obs)
	}
	return t
}

// loop serves until the quit channel closes, then drains whatever is still
// queued so every admitted request gets an answer — the queue channel is
// never closed, which keeps late Infer calls from panicking.
func (w *worker) loop() {
	for {
		select {
		case r := <-w.s.queue:
			w.collect(r)
			w.run()
		case <-w.s.quit:
			for {
				select {
				case r := <-w.s.queue:
					w.collect(r)
					w.run()
				default:
					return
				}
			}
		}
	}
}

// collect assembles a batch starting from first: greedily take everything
// already queued, then hold the batch open for the configured window to let
// stragglers coalesce. Shutdown cuts the window short.
func (w *worker) collect(first *request) {
	w.batch = append(w.batch[:0], first)
	max := w.s.cfg.MaxBatch
	// The blocking receive above often wakes by direct hand-off from one
	// sender while other ready clients haven't been scheduled to enqueue yet
	// (on a loaded box the runnext slot ping-pongs sender↔worker and the
	// queue looks empty). One yield lets every runnable client finish its
	// send before the drain, which is what makes batches actually form.
	if len(w.batch) < max && len(w.s.queue) == 0 {
		runtime.Gosched()
	}
	for len(w.batch) < max {
		select {
		case r := <-w.s.queue:
			w.batch = append(w.batch, r)
			continue
		default:
		}
		break
	}
	if len(w.batch) >= max || w.s.cfg.BatchWindow <= 0 {
		return
	}
	timer := time.NewTimer(w.s.cfg.BatchWindow)
	defer timer.Stop()
	for len(w.batch) < max {
		select {
		case r := <-w.s.queue:
			w.batch = append(w.batch, r)
		case <-timer.C:
			return
		case <-w.s.quit:
			return
		}
	}
}

// run adopts the latest policy, executes the collected batch in one backend
// call, and delivers the replies. Adoption happens only here, at the batch
// boundary, so a batch never mixes policies: everything coalesced before the
// swap answers under the old version, everything after under the new one.
func (w *worker) run() {
	b := len(w.batch)
	w.mu.Lock()
	if v := w.s.board.Version(); v != w.version {
		if nv, changed, err := w.s.board.Adopt(w.net, w.version); err != nil {
			// Published policy no longer matches this replica's topology —
			// cannot happen through Reload's validation; keep serving the
			// last good policy and surface the count.
			w.s.stats.adoptFailed()
		} else if changed {
			w.version = nv
			// Backends that compile weights at construction (quant,
			// systolic) must be rebuilt to see them; the float backend reads
			// the live network and rebuilds for free.
			if nb, err := nn.NewBackendFor(w.s.cfg.Backend, w.net, w.s.spec, nn.E2E); err != nil {
				w.s.stats.adoptFailed()
			} else {
				w.mergeLedgerLocked()
				w.backend = nb
			}
		}
	}
	before := backendCost(w.backend)
	out := w.out[:b*w.s.actions]
	batchedKernel := false
	if bi, ok := w.backend.(nn.BatchInferrer); ok && b > 1 {
		batchedKernel = true
		copy(out, bi.InferBatch(w.stack(b)))
	} else {
		sp := w.s.spec
		for i, r := range w.batch {
			obs := w.arena.Get(w.s.cfg.MaxBatch, sp.InputC, sp.InputH, sp.InputW)
			copy(obs.Data(), r.obs)
			copy(out[i*w.s.actions:(i+1)*w.s.actions], w.backend.Infer(obs))
		}
	}
	delta := backendCost(w.backend)
	delta.Inferences -= before.Inferences
	delta.EnergyMJ -= before.EnergyMJ
	delta.LatencyMS -= before.LatencyMS
	delta.Cycles -= before.Cycles
	version := w.version
	w.mu.Unlock()

	// Counted before the replies go out: a client that reads Stats() right
	// after its answer must find its batch there.
	w.s.stats.batchDone(b, batchedKernel, delta)
	for i, r := range w.batch {
		q := append([]float32(nil), out[i*w.s.actions:(i+1)*w.s.actions]...)
		r.reply <- result{rep: Reply{
			Action:        argmax(q),
			Q:             q,
			PolicyVersion: version,
			Batch:         b,
		}}
		w.batch[i] = nil // let the request go as soon as it is answered
	}
}

// mergeLedgerLocked folds the outgoing backend's device traffic into the
// server ledger before the backend is replaced, so a reload never loses the
// energy already charged. Callers hold w.mu.
func (w *worker) mergeLedgerLocked() {
	if lr, ok := w.backend.(interface{ Ledger() *mem.EnergyLedger }); ok {
		w.s.ledger.MergeFrom(lr.Ledger())
	}
}

// mergeLedger folds the worker's current backend ledger into dst, used by
// the /statsz aggregation; takes w.mu so it never races the backend run.
func (w *worker) mergeLedger(dst *mem.EnergyLedger) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if lr, ok := w.backend.(interface{ Ledger() *mem.EnergyLedger }); ok {
		dst.Merge(lr.Ledger())
	}
}

// batchSource names the kernel that executes coalesced batches on this
// server's backend, for the /statsz payload.
func (s *Server) batchSource() string {
	if len(s.workers) > 0 {
		w := s.workers[0]
		w.mu.Lock()
		_, batched := w.backend.(nn.BatchInferrer)
		w.mu.Unlock()
		if batched {
			return s.cfg.Backend + "/InferBatch"
		}
	}
	return s.cfg.Backend + "/Infer"
}

// backendCost reads the optional cost tally of a backend.
func backendCost(b nn.Backend) nn.BackendCost {
	if cr, ok := b.(nn.CostReporter); ok {
		return cr.Cost()
	}
	return nn.BackendCost{}
}

// argmax returns the index of the maximal value, first max on ties — the
// same greedy rule as tensor.ArgMax.
func argmax(q []float32) int {
	best := 0
	for i := 1; i < len(q); i++ {
		if q[i] > q[best] {
			best = i
		}
	}
	return best
}
