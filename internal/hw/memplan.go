package hw

import (
	"fmt"

	"dronerl/internal/nn"
)

// PlanEntry assigns one layer's weights to a memory.
type PlanEntry struct {
	Layer string
	// Store is "STT-MRAM" or "SRAM".
	Store string
	// WeightMB is the 16-bit weight footprint.
	WeightMB float64
	// Trained reports whether the topology updates this layer online.
	Trained bool
}

// MemoryPlan is the Fig. 5 weight mapping for one training topology: the
// online-trained FC layers (weights + gradient sums) live in the on-die
// SRAM global buffer, everything else in the STT-MRAM stack, plus a
// fixed scratchpad for PE staging.
type MemoryPlan struct {
	Config  nn.Config
	Entries []PlanEntry
	// SRAMWeightsMB holds the trained layers' weights.
	SRAMWeightsMB float64
	// SRAMGradientsMB holds the batch gradient sums (same size).
	SRAMGradientsMB float64
	// SRAMScratchMB is the PE staging scratchpad (4.2 MB, Fig. 4(b)).
	SRAMScratchMB float64
	// SRAMTotalMB is the on-die SRAM requirement.
	SRAMTotalMB float64
	// MRAMTotalMB is the stack footprint.
	MRAMTotalMB float64
	// FitsSRAM reports whether the plan fits the modeled SRAM capacity.
	FitsSRAM bool
}

// mb is a decimal megabyte; the paper quotes decimal sizes (12.6 MB etc).
const mb = 1e6

// scratchpadMB is the Fig. 4(b) "global buffer/scratchpad" 4.2 MB entry.
const scratchpadMB = 4.2

// PlanMemory computes the Fig. 5 mapping for the topology. For the paper's
// L3 flagship (train FC3+FC4+FC5) the totals reproduce the text: 12.6 MB of
// weights + 12.6 MB of gradient sums + 4.2 MB scratch = 29.4 MB SRAM, and
// ~100 MB (conv + FC1 + FC2) in the STT-MRAM stack.
func (m *Model) PlanMemory(cfg nn.Config) MemoryPlan {
	p := MemoryPlan{Config: cfg, SRAMScratchMB: scratchpadMB}
	bytesOf := func(weights int) float64 { return float64(weights) * 2 / mb }
	for _, c := range m.Arch.Convs {
		inMRAM := m.LayerInMRAM(c.Name, cfg)
		e := PlanEntry{Layer: c.Name, Store: storeName(inMRAM), WeightMB: bytesOf(c.Weights()), Trained: cfg == nn.E2E}
		p.Entries = append(p.Entries, e)
		if inMRAM {
			p.MRAMTotalMB += e.WeightMB
		} else {
			p.SRAMWeightsMB += e.WeightMB
		}
	}
	k := cfg.TrainedFCLayers()
	if cfg == nn.E2E {
		k = len(m.Arch.FCs)
	}
	for i, f := range m.Arch.FCs {
		inMRAM := m.LayerInMRAM(f.Name, cfg)
		trained := i >= len(m.Arch.FCs)-k
		e := PlanEntry{Layer: f.Name, Store: storeName(inMRAM), WeightMB: bytesOf(f.Weights()), Trained: trained}
		p.Entries = append(p.Entries, e)
		if inMRAM {
			p.MRAMTotalMB += e.WeightMB
		} else {
			p.SRAMWeightsMB += e.WeightMB
			p.SRAMGradientsMB += e.WeightMB // gradient sums mirror weights
		}
	}
	p.SRAMTotalMB = p.SRAMWeightsMB + p.SRAMGradientsMB + p.SRAMScratchMB
	p.FitsSRAM = m.SRAM.Fits(int64(p.SRAMTotalMB * mb))
	return p
}

func storeName(inMRAM bool) string {
	if inMRAM {
		return "STT-MRAM"
	}
	return "SRAM"
}

// SystemParams reproduces the Fig. 4(b) parameter table.
type SystemParams struct {
	Technology     string
	PEs            int
	ArrayRows      int
	ArrayCols      int
	GlobalBufferMB float64
	ScratchpadMB   float64
	RFPerPEKB      float64
	VoltageV       float64
	ClockGHz       float64
	PeakTOPSperW   float64
	Precision      string
	PEBandwidthBit int
	HBMIOs         int
	HBMGbpsPerIO   float64
}

// Params returns the modeled platform's Fig. 4(b) table.
func (m *Model) Params() SystemParams {
	return SystemParams{
		Technology:     "NanGate 15nm FreePDK",
		PEs:            m.array.PEs(),
		ArrayRows:      m.array.Rows,
		ArrayCols:      m.array.Cols,
		GlobalBufferMB: 30,
		ScratchpadMB:   scratchpadMB,
		RFPerPEKB:      float64(m.array.RFBytes) / 1024,
		VoltageV:       0.8,
		ClockGHz:       m.array.ClockGHz,
		PeakTOPSperW:   1.5,
		Precision:      fmt.Sprintf("%d bit fixed-point", m.array.WordBits),
		PEBandwidthBit: m.array.LinkBits,
		HBMIOs:         m.HBM.IOs,
		HBMGbpsPerIO:   m.HBM.GbpsPerIO,
	}
}
