// Command hwsim explores the hardware performance model beyond the paper's
// operating point: batch-size sweeps, STT-MRAM write-latency sensitivity,
// and what-if comparisons against an all-SRAM or all-NVM platform.
//
// Usage:
//
//	hwsim [-sweep batch|writelat|device|timeline|breakdown|backend]
//	      [-config L2|L3|L4|E2E] [-batch N] [-frames N]
//
// A bad flag, an unknown sweep or config, or -frames below 1 exits 2 with
// usage on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"dronerl/internal/hw"
	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/report"
	"dronerl/internal/tensor"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// sweeps lists the -sweep values in the order the usage names them.
var sweeps = []string{"batch", "writelat", "device", "timeline", "breakdown", "backend"}

// run is the whole command: it parses args, prints the chosen sweep to
// stdout and returns the exit status — 2 with usage on stderr for a bad
// flag, an unknown sweep or config, or fewer than one frame.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hwsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sweep := fs.String("sweep", "batch", strings.Join(sweeps, ", "))
	cfgName := fs.String("config", "L4", "topology for -sweep timeline (L2, L3, L4, E2E)")
	batch := fs.Int("batch", 4, "batch size for -sweep timeline")
	frames := fs.Int("frames", 32, "training frames to charge for -sweep backend (at least 1)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hwsim: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	cfg, err := nn.ParseConfig(*cfgName)
	if err != nil {
		return usage("%v", err)
	}
	if *frames < 1 {
		return usage("-frames %d: need at least one frame", *frames)
	}

	switch *sweep {
	case "batch":
		sweepBatch(stdout)
	case "writelat":
		sweepWriteLatency(stdout)
	case "device":
		sweepDevice(stdout)
	case "timeline":
		fmt.Fprintln(stdout, hw.NewModel().BuildTimeline(cfg, *batch).Render(60))
	case "breakdown":
		showBreakdown(stdout)
	case "backend":
		if err := showBackendBreakdown(stdout, *frames); err != nil {
			fmt.Fprintln(stderr, "hwsim:", err)
			return 1
		}
	default:
		return usage("unknown sweep %q; use %s", *sweep, strings.Join(sweeps, ", "))
	}
	return 0
}

// showBackendBreakdown runs the systolic inference backend over the scaled
// NavNet — the network the flight experiments actually fly — charging one
// inference and one backward propagation per frame for every topology, and
// attributes the per-frame energy to its physical sinks from the backend's
// ledger. This is the ledger-accounted counterpart of -sweep breakdown
// (which prices the paper's full AlexNet analytically): the NVM-write
// column again vanishes for every L-topology.
func showBackendBreakdown(w io.Writer, frames int) error {
	spec := nn.NavNetSpec()
	t := report.New(fmt.Sprintf("NavNet per-frame energy by sink, systolic backend (mJ, %d frames)", frames),
		"Config", "PE compute", "MRAM reads", "NVM writes", "DDR link", "total", "Mcycles/frame")
	for _, cfg := range nn.Configs {
		net := spec.Build()
		net.Init(rand.New(rand.NewSource(1)))
		net.SetConfig(cfg)
		b, err := hw.NewSystolicBackend(net, spec, cfg)
		if err != nil {
			return err
		}
		obs := tensor.New(1, nn.NavNetInput, nn.NavNetInput)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < frames; i++ {
			obs.RandUniform(rng, 1)
			b.Infer(obs)
			b.ChargeTrainStep()
		}
		br := b.Breakdown()
		n := float64(frames)
		t.Addf(cfg.String(), br.ComputeMJ/n, br.MRAMReadMJ/n, br.NVMWriteMJ/n,
			br.LinkMJ/n, br.TotalMJ()/n, float64(b.Cost().Cycles)/n/1e6)
	}
	fmt.Fprintln(w, t.String())
	fmt.Fprintln(w, "ledger and breakdown agree by construction; see internal/hw/backend_test.go")
	return nil
}

// showBreakdown attributes per-iteration energy to its physical sinks.
func showBreakdown(w io.Writer) {
	m := hw.NewModel()
	t := report.New("per-iteration energy by sink (mJ)",
		"Config", "PE compute", "MRAM reads", "NVM writes", "DDR link", "total")
	for _, cfg := range nn.Configs {
		b := m.Breakdown(cfg)
		t.Addf(cfg.String(), b.ComputeMJ, b.MRAMReadMJ, b.NVMWriteMJ, b.LinkMJ, b.TotalMJ())
	}
	fmt.Fprintln(w, t.String())
}

// sweepBatch extends Fig. 13(a) to a wide batch range.
func sweepBatch(w io.Writer) {
	m := hw.NewModel()
	t := report.New("sustainable FPS vs batch size", "Config", "b=1", "b=2", "b=4", "b=8", "b=16", "b=32", "b=64")
	for _, cfg := range nn.Configs {
		cells := []interface{}{cfg.String()}
		for _, b := range []int{1, 2, 4, 8, 16, 32, 64} {
			cells = append(cells, m.Iteration(cfg, b).FPS())
		}
		t.Addf(cells...)
	}
	fmt.Fprintln(w, t.String())
}

// sweepWriteLatency shows how the E2E baseline degrades as NVM write
// latency grows — the sensitivity behind the paper's claim that *all* NVM
// technologies (not just STT-MRAM) need the proposed co-design.
func sweepWriteLatency(w io.Writer) {
	t := report.New("E2E iteration latency vs NVM write latency (L4 shown for contrast)",
		"write ns/row", "E2E fwd+bwd ms", "L4 fwd+bwd ms", "L4 advantage")
	for _, wl := range []float64{10, 30, 50, 100, 200, 500} {
		m := hw.NewModel()
		m.MRAM.WriteLatencyNS = wl
		e2e := m.ForwardLatencyMS() + m.BackwardLatencyMS(nn.E2E)
		l4 := m.ForwardLatencyMS() + m.BackwardLatencyMS(nn.L4)
		t.Addf(wl, e2e, l4, e2e/l4)
	}
	fmt.Fprintln(w, t.String())
}

// sweepDevice compares the proposed hybrid against hypothetical all-SRAM
// (no density advantage, huge die) and naive all-NVM platforms.
func sweepDevice(w io.Writer) {
	t := report.New("per-iteration cost by platform (L4 topology)",
		"Platform", "Latency ms", "Energy mJ", "Note")

	hybrid := hw.NewModel()
	lat := hybrid.ForwardLatencyMS() + hybrid.BackwardLatencyMS(nn.L4)
	en := hybrid.ForwardEnergyMJ() + hybrid.BackwardEnergyMJ(nn.L4)
	t.Addf("hybrid MRAM+SRAM (paper)", lat, en, "weights in stack, updates in SRAM")

	naive := hw.NewModel()
	// All-NVM: even the trained layers live in (and write back to) MRAM.
	naiveBwd := 0.0
	naiveBwdEnergy := 0.0
	for i := len(naive.Arch.FCs) - 4; i < len(naive.Arch.FCs); i++ {
		c := naive.FCBackwardCost(i, nn.E2E) // E2E placement = MRAM for FC1/FC2
		naiveBwd += c.LatencyMS
		naiveBwdEnergy += c.EnergyMJ
	}
	// Force NVM write costs on FC3..FC5 too by re-pricing with the
	// write stream added explicitly.
	extra := 0.0
	extraEn := 0.0
	for _, f := range naive.Arch.FCs[len(naive.Arch.FCs)-3:] {
		bits := int64(f.Weights()) * 16
		extra += naive.MRAM.AccessTimeNS(mem.Write, bits) / 1e6
		extraEn += naive.MRAM.EnergyPJ(mem.Write, bits) / 1e9
	}
	t.Addf("all-NVM (no SRAM buffer)", naive.ForwardLatencyMS()+naiveBwd+extra,
		naive.ForwardEnergyMJ()+naiveBwdEnergy+extraEn, "every update pays 30ns/4.5pJ writes")

	sram := hw.NewModel()
	// All-SRAM: streaming stays the same in this model; the (unpriced)
	// cost is the ~112 MB of on-die SRAM it would take.
	t.Addf("all-SRAM (hypothetical)", sram.ForwardLatencyMS()+sram.BackwardLatencyMS(nn.L4),
		sram.ForwardEnergyMJ()+sram.BackwardEnergyMJ(nn.L4), "needs ~112MB on-die SRAM: not viable")

	fmt.Fprintln(w, t.String())
}
