package hw

import (
	"dronerl/internal/mem"
	"dronerl/internal/nn"
)

// EnergyBreakdown attributes one training iteration's energy (forward +
// backward of one image) to its physical sinks. It makes the paper's
// asymmetry argument quantitative: under E2E the STT-MRAM write component
// appears and the compute component balloons with the backward passes;
// under L2/L3/L4 the write component is identically zero.
type EnergyBreakdown struct {
	Config nn.Config
	// ComputeMJ is the PE-array-and-buffers energy (the affine power
	// model integrated over the busy time).
	ComputeMJ float64
	// MRAMReadMJ is the Table 1 read energy of all weight streaming.
	MRAMReadMJ float64
	// NVMWriteMJ is the Table 1 write energy of weight write-backs
	// (zero for the Li topologies — the point of the co-design).
	NVMWriteMJ float64
	// LinkMJ is the DDR camera-frame transfer energy.
	LinkMJ float64
}

// TotalMJ sums the components.
func (b EnergyBreakdown) TotalMJ() float64 {
	return b.ComputeMJ + b.MRAMReadMJ + b.NVMWriteMJ + b.LinkMJ
}

// Breakdown decomposes the per-iteration energy for a topology: the stack
// traffic of one image is StackTraffic(cfg)'s (every layer streams its
// weights once forward; trained FC layers re-stream theirs twice backward,
// and NVM-resident ones pay the write-back), and the rest of each layer's
// cost is compute.
func (m *Model) Breakdown(cfg nn.Config) EnergyBreakdown {
	b := EnergyBreakdown{Config: cfg}
	t := m.StackTraffic(cfg)
	for i, row := range m.ForwardTable() {
		read := m.MRAM.EnergyPJ(mem.Read, t.Forward[i]) / 1e9
		b.MRAMReadMJ += read
		b.ComputeMJ += row.EnergyMJ - read
	}
	for i, row := range m.BackwardTable(cfg) {
		read := m.MRAM.EnergyPJ(mem.Read, t.Backward[i]) / 1e9
		write := m.MRAM.EnergyPJ(mem.Write, t.Update[i]) / 1e9
		b.MRAMReadMJ += read
		b.NVMWriteMJ += write
		b.ComputeMJ += row.EnergyMJ - read - write
	}
	frame := mem.FrameBytes(m.Arch.InputH, m.Arch.InputC)
	b.LinkMJ = m.Link.TransferEnergyPJ(frame) / 1e9
	return b
}

func isConvLayer(name string) bool {
	return len(name) >= 4 && name[:4] == "CONV"
}
