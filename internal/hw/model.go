// Package hw is the analytical performance model of the paper's embedded
// platform. It combines the mapping plans of the 32x32 systolic PE array
// (Figs. 6-8) with the memory device models (internal/mem) to price every
// layer's forward and backward propagation, reproducing the paper's evaluation
// artifacts: the per-layer tables of Fig. 12, the FPS-vs-batch and
// latency/energy summaries of Fig. 13, the minimum-FPS table of Fig. 1 and
// the weight-to-memory mapping of Fig. 5.
//
// # Cost model
//
// Three documented mechanisms, calibrated once against the paper's
// post-synthesis numbers and then applied uniformly:
//
//  1. FC layers are weight-streaming-bound: weights cross the 1024-bit
//     memory interface in row accesses of 10 ns (Table 1). FC1 forward:
//     37.75 M weights x 16 b / 1024 b x 10 ns = 5.90 ms, vs the paper's
//     measured 5.365 ms.
//  2. CONV layers are broadcast-bound: filter and input-row words stream
//     from the global buffer at one word per cycle per the row-stationary
//     pass structure (Fig. 6); backpropagation adds the GEMM im2col
//     staging traffic (Section V.B) at the same rate.
//  3. Writes of updated weights to NVM-resident layers pay the STT-MRAM
//     write latency (30 ns per 1024-bit row) and energy (4.5 pJ/bit) —
//     the asymmetry the whole co-design is built around.
//
// The tables are the package's one timing source: a cycle the systolic
// backend reports is a slice of the latency it charges, at the array clock.
//
// Power is modeled affinely in active PEs, P = Pbase + Ppe x activePEs,
// with the two constants fitted to the paper's own FC1/FC5 rows
// (6799 mW @ 1024 PEs, 1910 mW @ 160 PEs => Pbase ~ 1 W, Ppe ~ 5.66 mW).
package hw

import (
	"fmt"

	"dronerl/internal/mem"
	"dronerl/internal/nn"
)

// Model prices the paper's network on the paper's platform.
type Model struct {
	array arrayConfig
	MRAM  *mem.Device
	SRAM  *mem.Device
	HBM   mem.HBMInterface
	Link  mem.DDRLink
	Arch  nn.ArchSpec

	// PbaseMW and PpeMW define the affine power model.
	PbaseMW, PpeMW float64
}

// NewModel builds the default model: the paper's modified AlexNet on the
// Fig. 4 platform.
func NewModel() *Model {
	return NewModelFor(nn.ModifiedAlexNetSpec())
}

// NewModelFor builds the model for an arbitrary architecture on the paper's
// platform (the same array, memory devices and calibrated power constants).
// The cost mechanisms are architecture-generic, so this prices the scaled
// NavNet — and anything else an ArchSpec can describe — exactly the way the
// published tables price the full AlexNet.
func NewModelFor(arch nn.ArchSpec) *Model {
	return &Model{
		array:   defaultArray(),
		MRAM:    mem.STTMRAM(),
		SRAM:    mem.SRAM(30 << 20),
		HBM:     mem.DefaultHBM(),
		Link:    mem.DefaultDDRLink(),
		Arch:    arch,
		PbaseMW: 1000,
		PpeMW:   5.66,
	}
}

// PowerMW returns modeled power at the given active-PE count.
func (m *Model) PowerMW(activePEs int) float64 {
	return m.PbaseMW + float64(m.PpeMW*float64(activePEs))
}

// LayerCost is one row of a Fig. 12-style table.
type LayerCost struct {
	// Layer is the paper's row label, e.g. "CONV1+ReLU+Maxpool".
	Layer string
	// LatencyMS is the processing latency in milliseconds.
	LatencyMS float64
	// ActivePEs is the number of busy PEs.
	ActivePEs int
	// PowerMW is the modeled power draw.
	PowerMW float64
	// EnergyMJ is latency x power plus explicit memory-access energy.
	EnergyMJ float64
	// NVMWrite reports whether this step writes the STT-MRAM stack
	// (the Fig. 12(b) flag column).
	NVMWrite bool
}

// convShapes derives the conv layers' shapes (with live input sizes) from
// the architecture.
func (m *Model) convShapes() []convShape {
	var out []convShape
	h := m.Arch.InputH
	inC := m.Arch.InputC
	for i, c := range m.Arch.Convs {
		s := convShape{
			Name: c.Name, InC: inC, OutC: c.OutC,
			K: c.K, Stride: c.Stride, Pad: c.Pad,
			InH: h, InW: h,
		}
		out = append(out, s)
		_, post := m.Arch.ConvOut(i)
		h = post
		inC = c.OutC
	}
	return out
}

// convLabel renders the paper's row label for conv stage i.
func (m *Model) convLabel(i int) string {
	c := m.Arch.Convs[i]
	l := c.Name + "+ReLU"
	if c.Pool {
		l += "+Maxpool"
	}
	return l
}

// wordBits is the fixed-point width.
func (m *Model) wordBits() int64 { return int64(m.array.WordBits) }

// streamMS prices a row-granular weight stream through the 1024-bit
// interface (mechanism 1).
func (m *Model) streamMS(words int64, kind mem.AccessKind) float64 {
	return m.MRAM.AccessTimeNS(kind, words*m.wordBits()) / 1e6
}

// broadcastMS prices word streaming from the global buffer at one word per
// cycle (mechanism 2).
func (m *Model) broadcastMS(words int64) float64 {
	return m.array.CyclesToNS(float64(words)) / 1e6
}

// ConvForwardCost prices conv stage i (including its ReLU/pool, which share
// the pass).
func (m *Model) ConvForwardCost(i int) LayerCost {
	s := m.convShapes()[i]
	plan := planConv(m.array, s)
	tr := plan.traffic(s)
	stream := m.broadcastMS(tr.WeightWords + tr.InputWords)
	compute := m.array.CyclesToNS(float64(s.MACs())/float64(plan.ActivePEs*m.array.MACsPerPE)) / 1e6
	lat := stream
	if compute > lat {
		lat = compute
	}
	// Output writeback over the 4096-bit GB port.
	lat += float64(float64(tr.OutputWords*m.wordBits()) / float64(m.array.GBBroadcastBits) * 1e-6)
	power := m.PowerMW(plan.ActivePEs)
	energy := power * lat / 1e3 // mW x ms = uJ -> mJ
	// Weight reads from the stack (first fill) at Table 1 read energy.
	energy += m.MRAM.EnergyPJ(mem.Read, s.WeightWords()*m.wordBits()) / 1e9
	return LayerCost{
		Layer: m.convLabel(i), LatencyMS: lat,
		ActivePEs: plan.ActivePEs, PowerMW: power, EnergyMJ: energy,
	}
}

// FCForwardCost prices FC stage i: weight-streaming-bound at the memory
// interface (mechanism 1) plus the input broadcast.
func (m *Model) FCForwardCost(i int) LayerCost {
	f := m.Arch.FCs[i]
	words := int64(f.Weights())
	lat := m.streamMS(words, mem.Read)
	lat += float64(float64(int64(f.In)*m.wordBits()) / float64(m.array.GBBroadcastBits) * 1e-6)
	active := fcActivePEs(m.array, f.Out)
	power := m.PowerMW(active)
	energy := power*lat/1e3 + m.MRAM.EnergyPJ(mem.Read, words*m.wordBits())/1e9
	return LayerCost{
		Layer: f.Name + "+ReLU", LatencyMS: lat,
		ActivePEs: active, PowerMW: power, EnergyMJ: energy,
	}
}

// FCBackwardCost prices the backpropagation of FC stage i under the given
// training topology. The cost has three parts: the transposed-matrix pass
// for dX (Fig. 8), the outer-product pass accumulating dW into the
// gradient-sum buffer, and — when the layer's weights live in the STT-MRAM
// stack (E2E training of FC1/FC2) — the write-back of updated weights at
// NVM write timing.
func (m *Model) FCBackwardCost(i int, cfg nn.Config) LayerCost {
	f := m.Arch.FCs[i]
	words := int64(f.Weights())
	nvmResident := m.LayerInMRAM(f.Name, cfg)
	// dX transposed pass + dW outer-product pass, both weight-traffic
	// streams.
	lat := 2 * m.streamMS(words, mem.Read)
	var nvmWriteEnergy float64
	if nvmResident {
		lat += m.streamMS(words, mem.Write)
		nvmWriteEnergy = m.MRAM.EnergyPJ(mem.Write, words*m.wordBits()) / 1e9
	} else {
		// SRAM-resident update: wide-row writes at 1 ns.
		lat += m.SRAM.AccessTimeNS(mem.Write, words*m.wordBits()) / 1e6
	}
	active := fcActivePEs(m.array, f.Out)
	power := m.PowerMW(active)
	energy := power*lat/1e3 + m.MRAM.EnergyPJ(mem.Read, 2*words*m.wordBits())/1e9 + nvmWriteEnergy
	return LayerCost{
		Layer: f.Name + "+ReLU", LatencyMS: lat,
		ActivePEs: active, PowerMW: power, EnergyMJ: energy,
		NVMWrite: nvmResident,
	}
}

// ConvBackwardCost prices the GEMM-based backpropagation of conv stage i
// (only exercised by the E2E baseline, Section V.B): im2col staging of the
// input and of the output gradient through the global buffer (write + read
// each), two weight streams (dW and dX GEMMs), and the NVM write-back of
// the updated filters.
func (m *Model) ConvBackwardCost(i int, cfg nn.Config) LayerCost {
	s := m.convShapes()[i]
	outPos := int64(s.OutH()) * int64(s.OutW())
	inPos := int64(s.InH) * int64(s.InW)
	patch := int64(s.K) * int64(s.K) * int64(s.InC)
	inCols := outPos * patch // im2col of the layer input (dW GEMM)
	dxCols := inPos * patch  // full-conv im2col for dX
	weightStream := 2 * s.WeightWords()
	words := inCols*2 + dxCols*2 + weightStream
	lat := m.broadcastMS(words)
	nvmResident := m.LayerInMRAM(s.Name, cfg)
	var nvmWriteEnergy float64
	if nvmResident {
		lat += m.streamMS(s.WeightWords(), mem.Write)
		nvmWriteEnergy = m.MRAM.EnergyPJ(mem.Write, s.WeightWords()*m.wordBits()) / 1e9
	}
	active := m.convBackwardActivePEs(outPos)
	power := m.PowerMW(active)
	energy := power*lat/1e3 + nvmWriteEnergy
	return LayerCost{
		Layer: m.convLabel(i), LatencyMS: lat,
		ActivePEs: active, PowerMW: power, EnergyMJ: energy,
		NVMWrite: nvmResident,
	}
}

// convBackwardActivePEs estimates GEMM occupancy from the output-position
// count (full rows of 32, capped at the array size). The paper's
// post-synthesis counts (208-432 for CONV5..CONV2) differ somewhat; only
// the reported power column depends on this.
func (m *Model) convBackwardActivePEs(outPositions int64) int {
	rows := (outPositions + int64(m.array.Cols) - 1) / int64(m.array.Cols)
	if rows > int64(m.array.Rows) {
		rows = int64(m.array.Rows)
	}
	if rows < 1 {
		rows = 1
	}
	return int(rows) * m.array.Cols
}

// LayerInMRAM reports whether the named layer's weights reside in the
// STT-MRAM stack under the given training topology: layers trained online
// live in the on-die SRAM (that is the whole point of the co-design);
// everything else — and, for the E2E baseline, everything except the three
// FC layers the 29.4 MB buffer can hold (Fig. 5) — lives in the stack.
func (m *Model) LayerInMRAM(layer string, cfg nn.Config) bool {
	if cfg != nn.E2E {
		// Trained layers are SRAM-resident by construction.
		k := cfg.TrainedFCLayers()
		for i := len(m.Arch.FCs) - k; i < len(m.Arch.FCs); i++ {
			if i >= 0 && m.Arch.FCs[i].Name == layer {
				return false
			}
		}
		return true
	}
	// E2E: Fig. 5 keeps FC3..FC5 in the buffer, the rest in the stack.
	n := len(m.Arch.FCs)
	for i := n - 3; i < n; i++ {
		if i >= 0 && m.Arch.FCs[i].Name == layer {
			return false
		}
	}
	return true
}

// TrainedLayerNames lists the layers updated online under cfg, in
// backpropagation order (last FC first, then conv from deep to shallow for
// E2E) — the row order of Fig. 12(b).
func (m *Model) TrainedLayerNames(cfg nn.Config) []string {
	var names []string
	k := cfg.TrainedFCLayers()
	if cfg == nn.E2E {
		k = len(m.Arch.FCs)
	}
	for i := len(m.Arch.FCs) - 1; i >= len(m.Arch.FCs)-k; i-- {
		names = append(names, m.Arch.FCs[i].Name)
	}
	if cfg == nn.E2E {
		for i := len(m.Arch.Convs) - 1; i >= 0; i-- {
			names = append(names, m.Arch.Convs[i].Name)
		}
	}
	return names
}

// SnapshotPublishTraffic prices one policy publish of the actor/learner
// online-learning pipeline under cfg: the learner writes the snapshot of the
// trainable weights into the double-buffered policy store the actors adopt
// from, each layer's share charged to the device its weights reside in.
// Under the transfer topologies every trained FC layer is SRAM-resident, so
// a publish is cheap on-die buffer traffic; under E2E the conv and early FC
// layers live in the STT-MRAM stack and pay the Table 1 NVM write while the
// buffer-resident FC tail stays at SRAM prices — the per-layer split of
// Fig. 5, whose stack share is StackTraffic's update write. Callers record
// every entry to their ledger per publish.
func (m *Model) SnapshotPublishTraffic(cfg nn.Config) []Traffic {
	mramBits := m.StackTraffic(cfg).UpdateBits
	sramBits := int64(m.Arch.TrainedWeights(cfg))*m.wordBits() - mramBits
	var out []Traffic
	if mramBits > 0 {
		out = append(out, Traffic{Device: m.MRAM, Kind: mem.Write, Bits: mramBits})
	}
	if sramBits > 0 {
		out = append(out, Traffic{Device: m.SRAM, Kind: mem.Write, Bits: sramBits})
	}
	return out
}

// String summarizes the model.
func (m *Model) String() string {
	return fmt.Sprintf("hw.Model{%s on %dx%d PEs, MRAM %s}",
		m.Arch.Name, m.array.Rows, m.array.Cols, m.MRAM.Name)
}
