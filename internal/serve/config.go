// Package serve is the policy-serving daemon behind cmd/dronerl-serve: a
// long-running inference front door that turns the repo's batched forward
// path and snapshot-swap machinery into a service for a fleet of concurrent
// clients.
//
// Three mechanisms carry the design:
//
//   - Dynamic batching. In-flight requests are coalesced — greedily from the
//     queue, then across a configurable window — into one stacked
//     ForwardBatch pass, one GEMM per layer for the whole batch
//     (nn.Backend.InferBatch). By the batched path's bit-identity contract a
//     coalesced reply equals the single-flight reply exactly, so batching is
//     purely a throughput decision.
//   - Zero-downtime hot reload. A POSTed versioned nn.Snapshot is validated
//     (layout version, architecture, parameter topology — the same error
//     paths that protect the drone's own snapshot restore), installed into a
//     master network and published through an nn.PolicyBoard. Workers adopt
//     at batch boundaries: requests already batched complete against the old
//     policy, later batches see the new one, and no reply ever mixes the
//     two.
//   - Admission control. The queue is bounded; a full queue rejects
//     immediately (HTTP 429) instead of letting latency grow without bound.
//
// Energy stays accounted like everywhere else in the reproduction: every
// admitted request charges its camera frame to the off-chip link, every
// policy publish pays the Fig. 5 per-device snapshot write
// (hw.Model.SnapshotPublishTraffic under E2E — serving swaps the whole
// network), and priced backends (quant, systolic) keep charging
// their per-inference device traffic. GET /statsz exposes the merged ledger
// totals next to queue depth, the batch-size histogram and p50/p99 latency.
package serve

import (
	"fmt"
	"strings"
	"time"

	"dronerl/internal/nn"
)

// Config assembles a Server. The zero value of every field selects the
// documented default; only Snapshot is required.
type Config struct {
	// Addr is the listen address of the convenience entry points that bind
	// their own listener (dronerl.Serve). Default "127.0.0.1:8080"; a ":0"
	// port picks a free one.
	Addr string
	// Backend names the inference substrate from the nn backend registry
	// ("float", "quant", "systolic", or anything registered). Default
	// "float", the GEMM reference with the batched fast path.
	Backend string
	// Workers is the number of inference workers. Each owns a private
	// replica of the policy network and its compiled backend, so workers
	// never contend on weights and adopt policy updates independently at
	// batch boundaries. Default 2.
	Workers int
	// MaxBatch caps how many requests one worker coalesces into a single
	// batched pass. 1 disables batching (single-flight). Default 32, the
	// accelerator's largest Fig. 13(a) batch point.
	MaxBatch int
	// BatchWindow is how long a worker holds an under-filled batch open for
	// stragglers after the first request arrives. Negative coalesces only
	// what is already queued (greedy, zero added latency — right for
	// closed-loop clients). Default 2ms.
	BatchWindow time.Duration
	// QueueDepth bounds the admission queue; requests beyond it are
	// rejected immediately with ErrQueueFull (HTTP 429). Default 256.
	QueueDepth int
	// Spec is the served architecture; the zero value selects NavNetSpec.
	Spec nn.ArchSpec
	// Snapshot is the initial policy, validated exactly like a hot reload.
	// Required.
	Snapshot *nn.Snapshot
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.Backend == "" {
		c.Backend = "float"
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.Spec.Name == "" {
		c.Spec = nn.NavNetSpec()
	}
	return c
}

// validate rejects inconsistent configurations with errors naming the fix.
func (c Config) validate() error {
	if c.Snapshot == nil {
		return fmt.Errorf("serve: Config.Snapshot is required (the initial policy)")
	}
	if !nn.HasBackend(c.Backend) {
		return fmt.Errorf("serve: unknown backend %q (registered: %s)",
			c.Backend, strings.Join(nn.BackendNames(), ", "))
	}
	if c.Workers < 1 {
		return fmt.Errorf("serve: %d workers, need at least 1", c.Workers)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: max batch %d, need at least 1", c.MaxBatch)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("serve: queue depth %d, need at least 1", c.QueueDepth)
	}
	return nil
}
