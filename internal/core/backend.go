package core

import (
	"dronerl/internal/hw"
	"dronerl/internal/mem"
	"dronerl/internal/nn"
)

// The experiment drivers select inference backends by registry name. The
// float reference lives and registers in internal/nn. The 16-bit integer
// engine (internal/qnn) computes words only; internal/hw prices them and
// registers "quant", "quant-train" and "systolic" over it, so importing hw
// here (for hw.Ledgered, and every driver's hw.Model) guarantees every
// binary built on core links them all.

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
// backends without one (the float path).
func backendLedger(b nn.Backend) *mem.EnergyLedger {
	if t, ok := b.(hw.Ledgered); ok {
		return t.Ledger()
	}
	return nil
}
