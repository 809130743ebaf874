package core

import (
	"dronerl/internal/mem"
	"dronerl/internal/nn"

	// Linked for its backend registrations: the drivers resolve "quant",
	// "quant-train" and "systolic" through the nn registry, so every binary
	// built on core must carry the implementations.
	_ "dronerl/internal/hw"
)

// The experiment drivers select inference backends by registry name. The
// float reference lives and registers in internal/nn. The 16-bit integer
// engine (internal/qnn) computes words only; internal/hw prices them and
// registers "quant", "quant-train" and "systolic" over it, so importing hw
// here guarantees every binary built on core links them all.

// Backend names understood by every driver (and listed by nn.BackendNames).
const (
	// FloatBackendName is the float32 GEMM reference path (the default;
	// selecting it explicitly is bit-identical to not selecting one).
	FloatBackendName = "float"
	// QuantBackendName is the 16-bit fixed-point integer engine.
	QuantBackendName = "quant"
	// SystolicBackendName is the 16-bit engine's replies priced on the
	// modeled PE array and memory stack, with per-run energy ledgers.
	SystolicBackendName = "systolic"
	// QuantTrainBackendName is the trainable 16-bit fixed-point engine:
	// integer forward/backward and stochastically-rounded weight updates,
	// selected through rl.WithTrainBackend rather than WithEvalBackend.
	QuantTrainBackendName = "quant-train"
)

// backendLedger extracts a backend's per-device energy ledger, nil for
// backends without one (the float path). Any backend — including
// caller-registered ones — participates by exposing the Ledger method, the
// way every backend internal/hw registers does.
func backendLedger(b nn.Backend) *mem.EnergyLedger {
	if t, ok := b.(interface{ Ledger() *mem.EnergyLedger }); ok {
		return t.Ledger()
	}
	return nil
}
