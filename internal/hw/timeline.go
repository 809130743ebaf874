package hw

import (
	"fmt"
	"strings"

	"dronerl/internal/mem"
	"dronerl/internal/nn"
)

// Timeline decomposes one online-training frame into its ordered phases
// with absolute start/end times — the schedule behind the Fig. 13 numbers,
// made inspectable. Phases follow the paper's system flow: the camera
// frame crosses the DDR link into the global buffer, inference picks the
// action, the training forward/backward passes run layer by layer, and the
// batched weight update closes the iteration.

// Phase is one scheduled step.
type Phase struct {
	Name    string
	StartMS float64
	EndMS   float64
	// NVMWrite marks phases that write the STT-MRAM stack.
	NVMWrite bool
}

// DurationMS returns the phase length. TestTimelineE2EDominatedByBackward
// sums it.
func (p Phase) DurationMS() float64 { return p.EndMS - p.StartMS }

// Timeline is the ordered schedule of one frame.
type Timeline struct {
	Config nn.Config
	Batch  int
	Phases []Phase
}

// TotalMS returns the schedule makespan.
func (t Timeline) TotalMS() float64 {
	if len(t.Phases) == 0 {
		return 0
	}
	return t.Phases[len(t.Phases)-1].EndMS
}

// BuildTimeline lays out one training frame for the topology and batch.
func (m *Model) BuildTimeline(cfg nn.Config, batch int) Timeline {
	if batch <= 0 {
		batch = 1
	}
	tl := Timeline{Config: cfg, Batch: batch}
	cursor := 0.0
	add := func(name string, durMS float64, nvm bool) {
		tl.Phases = append(tl.Phases, Phase{Name: name, StartMS: cursor, EndMS: cursor + durMS, NVMWrite: nvm})
		cursor += durMS
	}

	// Frame ingest over the DDR link into the global buffer.
	frame := mem.FrameBytes(m.Arch.InputH, m.Arch.InputC)
	add("frame ingest (DDR6)", m.Link.TransferTimeNS(frame)/1e6, false)

	// Inference for the action (full forward).
	add("inference", m.ForwardLatencyMS(), false)

	// Training forward, per layer (same costs as inference but itemized).
	for i := range m.Arch.Convs {
		c := m.ConvForwardCost(i)
		add("fwd "+c.Layer, c.LatencyMS, false)
	}
	for i := range m.Arch.FCs {
		c := m.FCForwardCost(i)
		add("fwd "+c.Layer, c.LatencyMS, false)
	}

	// Training backward, per trainable layer in backprop order.
	for _, row := range m.BackwardTable(cfg) {
		add("bwd "+row.Layer, row.LatencyMS, row.NVMWrite)
	}

	// Batched weight update for the SRAM-resident layers, amortized.
	it := m.Iteration(cfg, batch)
	if it.UpdateMS > 0 {
		add(fmt.Sprintf("weight update (1/%d of batch)", batch), it.UpdateMS, false)
	}
	return tl
}

// Render draws the schedule as a proportional text Gantt chart of the
// given width.
func (t Timeline) Render(width int) string {
	if width < 20 {
		width = 60
	}
	total := t.TotalMS()
	if total <= 0 {
		return "(empty timeline)"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "one training frame, %v, batch %d — %.2f ms total\n", t.Config, t.Batch, total)
	for _, p := range t.Phases {
		bar := int(p.DurationMS() / total * float64(width))
		if bar < 1 {
			bar = 1
		}
		marker := ' '
		if p.NVMWrite {
			marker = 'W'
		}
		fmt.Fprintf(&sb, "%-28s %8.3f ms %c |%s\n", p.Name, p.DurationMS(), marker, strings.Repeat("#", bar))
	}
	return sb.String()
}
