package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
)

// metricDecl is one metric as BENCHMARK.json declares it. The file is the
// harness's only registry: a run reports exactly the names it lists, so the
// two cannot drift apart.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// simulated reports whether the metric comes from the hardware model, not
// from a clock: such a value must repeat bit for bit on any host.
func (d metricDecl) simulated() bool { return strings.HasPrefix(d.Unit, "sim_") }

type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(path string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// result is one run of one workload as reported.
type result struct {
	Workload    string          `json:"workload"`
	Set         int             `json:"set,omitempty"` // 1 or 2 under -check-repeat
	Traced      bool            `json:"traced"`
	Correct     bool            `json:"correct"`
	Attempted   int             `json:"attempted"`
	Failed      int             `json:"failed"`
	FailedShare float64         `json:"failed_share"`
	Stolen      float64         `json:"host_steal_share"` // taken out of every end-to-end sample
	Errors      []string        `json:"errors,omitempty"`
	Metrics     map[string]stat `json:"-"`
	Reported    []reportedStat  `json:"metrics"`
}

// reportedStat is a metric as written to result.json: the declaration beside
// the measurement.
type reportedStat struct {
	metricDecl
	Simulated bool `json:"simulated,omitempty"`
	stat
}

func untracedResult(o outcome) result {
	return result{Workload: o.workload, Attempted: o.attempted, Failed: o.failed,
		Errors: o.errs, Metrics: o.endToEnd(), Stolen: o.stolen}
}

type header struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Clients    int     `json:"clients"`
	Threads    int     `json:"os_threads"`
}

type report struct {
	m       manifest
	Header  header   `json:"header"`
	Results []result `json:"results"`
	// Claim stays null: this benchmark is the instrument, it claims no gain.
	Claim *string `json:"claim"`
}

func newReport(m manifest, c config) *report {
	h := header{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCS: c.procs, GoVersion: runtime.Version(), Commit: "unknown",
		Seed: c.seed, Seconds: c.seconds, Scale: c.scale, Clients: c.clients,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return &report{m: m, Header: h}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// add checks a result against the manifest — every declared metric of its
// kind present and finite, nothing undeclared — and files it. It reports
// whether the result is correct.
func (r *report) add(res result) bool {
	decls := r.m.EndToEnd
	if res.Traced {
		decls = r.m.PerLayer
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.Name] = true
		s, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			res.Errors = append(res.Errors, "metric "+d.Name+" was not measured")
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			res.Errors = append(res.Errors, fmt.Sprintf("metric %s is %v", d.Name, s.Value))
		default:
			res.Reported = append(res.Reported, reportedStat{d, d.simulated(), s})
		}
	}
	for name := range res.Metrics {
		if !declared[name] {
			res.Errors = append(res.Errors, "metric "+name+" is measured but not declared in BENCHMARK.json")
		}
	}
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0 && res.Attempted > 0
	r.Results = append(r.Results, res)
	return res.Correct
}

// table prints the run header and every metric by name with its unit.
func (r *report) table(w io.Writer) {
	h := r.Header
	fmt.Fprintf(w, "# %s/%s  %s  nproc %d  GOMAXPROCS %d  %s  commit %s\n",
		h.GOOS, h.GOARCH, h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "# seed %d  seconds %g  scale %g  closed loop, %d client goroutines\n",
		h.Seed, h.Seconds, h.Scale, h.Clients)
	for _, res := range r.Results {
		kind := fmt.Sprintf("end to end, host steal %.1f%% taken out", 100*res.Stolen)
		if res.Traced {
			kind = "per layer (traced)"
		}
		fmt.Fprintf(w, "\n== %s  %s  attempted %d  failed %d  failed_share %g  correct %v\n",
			res.Workload, kind, res.Attempted, res.Failed, res.FailedShare, res.Correct)
		for _, e := range res.Errors {
			fmt.Fprintln(w, "   ERROR:", e)
		}
		tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tbetter\tbound\tvalue\tmedian\tmin\tmax\tn\t")
		for _, m := range res.Reported {
			bound, sim := "-", ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("%g%%", m.Bound*100)
			}
			if m.Simulated {
				sim = "simulated"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%d\t%s\n",
				m.Name, m.Unit, m.Better, bound, m.Value, m.Median, m.Min, m.Max, m.N, sim)
		}
		tw.Flush()
		if res.Traced {
			modeledTable(w, res.Metrics)
		}
	}
	fmt.Fprintln(w)
}

// modeledTable is the measured-beside-modeled view: host microseconds per
// NavNet layer at batch 32 next to the accelerator model's milliseconds for
// the same layer, each with its share of the pass, because the absolute
// numbers belong to different machines and only the shapes can agree.
func modeledTable(w io.Writer, m map[string]stat) {
	fmt.Fprintln(w, "\n   measured (host, batch 32) beside modeled (accelerator, simulated), per NavNet layer")
	tw := tabwriter.NewWriter(w, 3, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "   layer\tpass\tnn us\tshare\thw.model ms\tshare\thw.model mJ\t")
	for _, pass := range []string{"fwd", "bwd"} {
		var hostSum, modelSum float64
		for _, l := range navLayers {
			hostSum += m["nn."+pass+"_us."+l].Value
			modelSum += m["hw.model."+pass+"_ms."+l].Value
		}
		for _, l := range navLayers {
			host, model := m["nn."+pass+"_us."+l].Value, m["hw.model."+pass+"_ms."+l].Value
			fmt.Fprintf(tw, "   %s\t%s\t%.1f\t%.1f%%\t%.6f\t%.1f%%\t%.6f\t\n", l, pass,
				host, 100*host/hostSum, model, 100*model/modelSum, m["hw.model.energy_mj."+l].Value)
		}
	}
	tw.Flush()
}

func (r *report) write(path string) error {
	r.Header.Threads = pprof.Lookup("threadcreate").Count()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// lastLine is what the final line of standard output carries. One workload:
// the four keys a driver reads. Several: the set's summary, ending in the
// null claim.
func (r *report) lastLine() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if len(r.Results) == 1 {
		res := r.Results[0]
		metrics := map[string]value{}
		for _, m := range res.Reported {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
		return struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{res.Correct, max(res.Attempted, 1), res.Failed, metrics}
	}
	sum := struct {
		Correct   bool    `json:"correct"`
		Workloads int     `json:"workloads"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Claim     *string `json:"claim"`
	}{Correct: true, Workloads: len(r.Results)}
	for _, res := range r.Results {
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
	}
	return sum
}

// checkRepeat runs the untraced set twice in one process and holds the second
// to the first: every end-to-end metric within its bound, every simulated
// value identical. It is the benchmark testing its own steadiness.
func checkRepeat(rep *report, ws []workload, c config, w io.Writer) bool {
	ok := true
	var sets [2][]result
	var sims [2]map[string]stat
	for i := range sets {
		for _, wl := range ws {
			res := untracedResult(runUntraced(wl, c))
			res.Set = i + 1
			ok = rep.add(res) && ok
			sets[i] = append(sets[i], res)
		}
		sims[i] = simulatedMetrics()
	}
	fmt.Fprintln(w, "== check-repeat: second set against the first")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiff\tbound\t")
	for i, first := range sets[0] {
		for _, d := range rep.m.EndToEnd {
			a, b := first.Metrics[d.Name].Value, sets[1][i].Metrics[d.Name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if !(diff <= d.Bound) {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%g%%\t%s\n",
				first.Workload, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	moved := 0
	for name, a := range sims[0] {
		if b := sims[1][name]; math.Float64bits(a.Value) != math.Float64bits(b.Value) {
			fmt.Fprintf(w, "simulated %s moved: %v then %v\n", name, a.Value, b.Value)
			moved++
		}
	}
	fmt.Fprintf(w, "simulated metrics: %d compared, %d moved\n\n", len(sims[0]), moved)
	return ok && moved == 0
}
