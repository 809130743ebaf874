// Command benchmark measures the paths a user of this repository exercises —
// the HTTP front door of the serving daemon, the on-board online-RL loop and
// the TCP actor/learner — end to end, and in a separate traced run layer by
// layer beside the hardware model. BENCHMARK.json at the repository root
// names every workload and metric; README.md in this directory maps them.
//
//	go build -o benchmark/out/bench ./benchmark
//	benchmark/out/bench -seed 1                      # all seven workloads, untraced
//	benchmark/out/bench -workload online-l3 -trace 1 # per-layer rows for one workload
//	benchmark/out/bench -check-repeat                # two untraced sets, compared against the bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	// The backend registry is filled by package init: without these two
	// imports "quant", "quant-train" and "systolic" are unknown names.
	_ "dronerl/internal/hw"
	_ "dronerl/internal/qnn"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 10, "measuring budget of one untraced workload run")
		trace    = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		repeat   = fs.Bool("check-repeat", false, "run the untraced set twice and compare the two against the bounds")
		scale    = fs.Float64("scale", 1, "multiplies every operation count")
		manifest = fs.String("manifest", "BENCHMARK.json", "the benchmark's contract: workloads, metrics, units, bounds")
		outDir   = fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json and trace.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	m, err := loadManifest(*manifest)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	c := config{seed: *seed, seconds: *seconds, scale: *scale, procs: procs, clients: 4 * procs}

	var selected []workload
	if *name == "all" {
		selected = workloads()
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []workload{w}
	}

	rep := newReport(m, c)
	ok := true
	var verdict bytes.Buffer // -check-repeat's comparison, printed under the tables
	switch {
	case *repeat:
		ok = checkRepeat(rep, selected, c, &verdict)
	case *trace == 1:
		for _, w := range selected {
			ok = rep.add(runTraced(w, c, filepath.Join(*outDir, "trace.json"))) && ok
		}
	default:
		for _, w := range selected {
			ok = rep.add(untracedResult(runUntraced(w, c))) && ok
		}
	}
	rep.table(stdout)
	stdout.Write(verdict.Bytes())
	if err := rep.write(filepath.Join(*outDir, "result.json")); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// The last line of standard output is the machine-readable result: one
	// workload's in the driver's shape, or the whole set's summary.
	if err := json.NewEncoder(stdout).Encode(rep.lastLine()); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
