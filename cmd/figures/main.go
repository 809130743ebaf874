// Command figures regenerates every table and figure of the paper's
// evaluation section.
//
// Usage:
//
//	figures [-artifact all|fig1|fig3|fig4|fig5|fig9|fig10|fig11|fig12|fig13|table1] [-scale quick|full]
//
// Hardware-side artifacts are analytical and instant; fig9/fig10/fig11
// run the flight simulator (seconds at -scale quick, ~2 minutes at full).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"

	"dronerl/internal/core"
	"dronerl/internal/env"
	"dronerl/internal/mem"
	"dronerl/internal/nn"
	"dronerl/internal/report"
)

func main() {
	// Ctrl-C cancels the flight experiment cleanly at the next run boundary
	// instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// artifacts lists the -artifact values in the order the usage names them.
var artifacts = []string{"all", "fig1", "fig3", "fig4", "fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "table1"}

// scales maps each -scale value to its flight experiment scale.
var scales = map[string]func() core.FlightScale{"quick": core.QuickScale, "full": core.FullScale}

// flightFlags are the flags only the flight experiment reads; run refuses
// them when no selected artifact runs it.
var flightFlags = []string{"scale", "progress"}

// run is the whole command: it prints the chosen artifacts to stdout and
// returns the exit status — 2 with usage on stderr for a bad flag, an
// unknown artifact or scale, or -scale / -progress without an artifact
// that runs the flight experiment; 1 for a flight experiment that fails or
// a CSV that cannot be written.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	artifact := fs.String("artifact", "all", "which artifact to regenerate: "+strings.Join(artifacts, ", "))
	scaleFlag := fs.String("scale", "quick", "flight experiment scale: quick or full")
	csvDir := fs.String("csv", "", "also write machine-readable CSVs for the hardware artifacts into this directory")
	progress := fs.Bool("progress", false, "stream per-run progress of the flight experiment to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "figures: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	if !slices.Contains(artifacts, *artifact) {
		return usage("unknown artifact %q; use %s", *artifact, strings.Join(artifacts, ", "))
	}
	newScale, ok := scales[*scaleFlag]
	if !ok {
		return usage("unknown scale %q; use quick or full", *scaleFlag)
	}
	scale := newScale()
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "figures: %s: %v\n", what, err)
		return 1
	}

	show := func(name string) bool { return *artifact == "all" || *artifact == name }
	runsFlight := show("fig10") || show("fig11")
	var unread string
	fs.Visit(func(f *flag.Flag) {
		if unread == "" && !runsFlight && slices.Contains(flightFlags, f.Name) {
			unread = f.Name
		}
	})
	if unread != "" {
		return usage("-%s is not read by -artifact %s: only fig10 and fig11 run the flight experiment",
			unread, *artifact)
	}

	var flight *core.FlightReport
	if runsFlight {
		fmt.Fprintf(stderr, "running flight experiment (%d meta + 4x4x%d online iterations)...\n",
			scale.MetaIters, scale.OnlineIters)
		exp, err := core.NewFlightExperiment(scale, nil)
		if err != nil {
			return fail("flight experiment", err)
		}
		var runOpts []core.RunOption
		if *progress {
			runOpts = append(runOpts, core.WithProgress(func(ev core.Event) {
				fmt.Fprintln(stderr, ev)
			}))
		}
		if err := core.Run(ctx, exp, runOpts...); err != nil {
			return fail("flight experiment", err)
		}
		flight = exp.Report()
	}
	hwrep := core.RunHardwareExperiment()

	if show("fig1") {
		fmt.Fprintln(stdout, hwrep.MinFPSTable())
	}
	if show("fig3") {
		printFig3(stdout)
	}
	if show("fig4") {
		printFig4(stdout, hwrep)
	}
	if show("table1") {
		printTable1(stdout)
	}
	if show("fig5") {
		fmt.Fprintln(stdout, hwrep.MemoryPlanTable(nn.L3))
	}
	if show("fig9") {
		printFig9(stdout, scale.Seed)
	}
	if show("fig10") {
		printFig10(stdout, flight)
	}
	if show("fig11") {
		printFig11(stdout, flight)
	}
	if show("fig12") {
		fmt.Fprintln(stdout, hwrep.ForwardTable())
		fmt.Fprintln(stdout, hwrep.BackwardTable())
	}
	if show("fig13") {
		fmt.Fprintln(stdout, hwrep.FPSTable())
		fmt.Fprintln(stdout, hwrep.SummaryTable())
	}
	if *csvDir != "" {
		if flight != nil {
			if err := writeFlightCSVs(*csvDir, flight); err != nil {
				return fail("writing CSVs", err)
			}
		}
		if err := writeCSVs(*csvDir, hwrep); err != nil {
			return fail("writing CSVs", err)
		}
		fmt.Fprintf(stderr, "CSV artifacts written to %s\n", *csvDir)
	}
	return 0
}

// writeCSVs dumps the hardware tables as CSV files for plotting tools.
func writeCSVs(dir string, hwrep *core.HardwareReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := map[string]string{
		"fig1_minfps.csv":     hwrep.BuildMinFPSTable().CSV(),
		"fig12a_forward.csv":  hwrep.BuildForwardTable().CSV(),
		"fig12b_backward.csv": hwrep.BuildBackwardTable().CSV(),
		"fig13a_fps.csv":      hwrep.BuildFPSTable().CSV(),
		"fig13b_summary.csv":  hwrep.BuildSummaryTable().CSV(),
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeFlightCSVs dumps the Fig. 10 learning curves and the Fig. 11 rows.
func writeFlightCSVs(dir string, flight *core.FlightReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	curves := report.New("", "env", "config", "point", "cumulative_reward", "return")
	fig11 := report.New("", "env", "config", "sfd_m", "normalized_sfd", "crashes")
	for _, er := range flight.Envs {
		for _, run := range er.Runs {
			for i := range run.RewardSeries {
				ret := 0.0
				if i < len(run.ReturnSeries) {
					ret = run.ReturnSeries[i]
				}
				curves.Addf(er.Env, run.Config.String(), i, run.RewardSeries[i], ret)
			}
			fig11.Addf(er.Env, run.Config.String(), run.SFD, run.NormalizedSFD, run.Crashes)
		}
	}
	for name, content := range map[string]string{
		"fig10_curves.csv": curves.CSV(),
		"fig11_sfd.csv":    fig11.CSV(),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func printFig3(w io.Writer) {
	spec := nn.ModifiedAlexNetSpec()
	t := report.New("Fig. 3(a) — modified AlexNet weight census",
		"Layer", "#neurons", "#weights", "% total", "% cumulative")
	for _, r := range spec.WeightCensus() {
		if r.Layer == "output" {
			t.Addf(r.Layer, r.Neurons, "", "", "")
			continue
		}
		t.Addf(r.Layer, r.Neurons, r.Weights, r.PctTotal, r.PctCumulative)
	}
	t.Addf("sum", spec.NeuronSum(), spec.FCWeights(), "", "")
	fmt.Fprintln(w, t.String())

	t2 := report.New("Fig. 3(b) — online-trained weight fraction per topology",
		"Config", "Trained FC layers", "Trained weights", "% of total")
	for _, cfg := range nn.Configs {
		k := cfg.TrainedFCLayers()
		kd := fmt.Sprint(k)
		if k < 0 {
			kd = "all layers"
		}
		t2.Addf(cfg.String(), kd, spec.TrainedWeights(cfg), 100*spec.TrainedFraction(cfg))
	}
	fmt.Fprintln(w, t2.String())
}

func printFig4(w io.Writer, hwrep *core.HardwareReport) {
	p := hwrep.Params
	t := report.New("Fig. 4(b) — system parameters", "Parameter", "Value")
	t.Add("Technology", p.Technology)
	t.Add("Number of PEs", fmt.Sprintf("%d (%d row, %d column)", p.PEs, p.ArrayRows, p.ArrayCols))
	t.Add("Global buffer/scratchpad", fmt.Sprintf("%.0fMB/%.1fMB", p.GlobalBufferMB, p.ScratchpadMB))
	t.Add("Register file per PE", fmt.Sprintf("%.1fKB", p.RFPerPEKB))
	t.Add("Operation voltage", fmt.Sprintf("%.1fV", p.VoltageV))
	t.Add("Clock speed", fmt.Sprintf("%.0fGhz", p.ClockGHz))
	t.Add("Peak throughput", fmt.Sprintf("%.1fTOPS/W", p.PeakTOPSperW))
	t.Add("Arithmetic precision", p.Precision)
	t.Add("Bandwidth between PEs", fmt.Sprintf("%d bit", p.PEBandwidthBit))
	t.Add("MRAM stack I/O", fmt.Sprintf("%d IOs x %.0f Gbit/s", p.HBMIOs, p.HBMGbpsPerIO))
	fmt.Fprintln(w, t.String())
}

func printTable1(w io.Writer) {
	d := mem.STTMRAM()
	t := report.New("Table 1 — STT-MRAM parameters", "Write latency", "Read latency", "Write energy", "Read energy")
	t.Add(fmt.Sprintf("%.0fns", d.WriteLatencyNS), fmt.Sprintf("%.0fns", d.ReadLatencyNS),
		fmt.Sprintf("%.1fpJ/bit", d.WriteEnergyPJPerBit), fmt.Sprintf("%.1fpJ/bit", d.ReadEnergyPJPerBit))
	fmt.Fprintln(w, t.String())
}

func printFig9(w io.Writer, seed int64) {
	fmt.Fprintln(w, "Fig. 9 — test environments (top-down maps)")
	for _, world := range env.TestEnvironments(seed) {
		fmt.Fprintln(w, world.Render(72, 24))
	}
}

func printFig10(w io.Writer, flight *core.FlightReport) {
	fmt.Fprintln(w, "Fig. 10 — cumulative reward and return during online RL")
	for _, er := range flight.Envs {
		fmt.Fprintf(w, "\n(%s)\n", er.Env)
		t := report.New("", "Config", "cumulative reward (start->end)", "final", "return curve", "final")
		for _, run := range er.Runs {
			t.Add(run.Config.String(),
				report.Sparkline(run.RewardSeries, 40),
				report.Num(last(run.RewardSeries)),
				report.Sparkline(run.ReturnSeries, 40),
				report.Num(last(run.ReturnSeries)))
		}
		fmt.Fprintln(w, t.String())
	}
}

func printFig11(w io.Writer, flight *core.FlightReport) {
	t := report.New("Fig. 11 — normalized safe flight distance (vs E2E)",
		"Environment", "L2", "L3", "L4", "E2E", "worst Li degradation %")
	for _, er := range flight.Envs {
		cells := []interface{}{er.Env}
		for _, cfg := range []nn.Config{nn.L2, nn.L3, nn.L4, nn.E2E} {
			run, _ := er.Run(cfg)
			cells = append(cells, run.NormalizedSFD)
		}
		cells = append(cells, er.WorstLiDegradationPct)
		t.Addf(cells...)
	}
	fmt.Fprintln(w, t.String())

	t2 := report.New("raw safe flight distance (m) and total eval crashes",
		"Environment", "L2 m", "(crash)", "L3 m", "(crash)", "L4 m", "(crash)", "E2E m", "(crash)")
	for _, er := range flight.Envs {
		cells := []interface{}{er.Env}
		for _, cfg := range []nn.Config{nn.L2, nn.L3, nn.L4, nn.E2E} {
			run, _ := er.Run(cfg)
			cells = append(cells, run.SFD, run.Crashes)
		}
		t2.Addf(cells...)
	}
	fmt.Fprintln(w, t2.String())
}

func last(s []float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}
