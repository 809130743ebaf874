package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

// TestManifestNames holds BENCHMARK.json to the naming rules and to the
// harness's own workload list.
func TestManifestNames(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	var declared []string
	for _, w := range m.Workloads {
		use(w.Name)
		declared = append(declared, w.Name)
	}
	var built []string
	for _, w := range workloads() {
		built = append(built, w.name)
	}
	if strings.Join(declared, " ") != strings.Join(built, " ") {
		t.Errorf("BENCHMARK.json lists workloads %v, the harness builds %v", declared, built)
	}
	for _, d := range append(append([]metricDecl(nil), m.EndToEnd...), m.PerLayer...) {
		use(d.Name)
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	if len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(m.PerLayer))
	}
}

// TestSmoke runs every workload at 1/100 scale through the command's own
// entry point, then one traced run per family, and checks that exactly the
// declared metrics come out, finite, with nothing failed.
func TestSmoke(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	invoke := func(args ...string) []byte {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args = append(args, "-scale", "0.01", "-seconds", "0", "-manifest", manifestPath, "-out", out)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("benchmark %v: exit %d\n%s%s", args, code, stdout.String(), stderr.String())
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		return lines[len(lines)-1]
	}

	var summary struct {
		Correct   bool
		Workloads int
		Failed    int
		Claim     *string
	}
	if err := json.Unmarshal(invoke("-seed", "1"), &summary); err != nil {
		t.Fatal(err)
	}
	if !summary.Correct || summary.Workloads != len(m.Workloads) || summary.Failed != 0 || summary.Claim != nil {
		t.Errorf("summary of the untraced set: %+v", summary)
	}
	var rep struct {
		Results []struct {
			Workload string
			Metrics  []struct {
				Name  string
				Value float64
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for i, res := range rep.Results {
		if res.Workload != m.Workloads[i].Name {
			t.Errorf("result %d is %s, want %s", i, res.Workload, m.Workloads[i].Name)
		}
		for j, d := range m.EndToEnd {
			if j >= len(res.Metrics) || res.Metrics[j].Name != d.Name {
				t.Fatalf("%s: end-to-end metric %d is not %s", res.Workload, j, d.Name)
			}
			if v := res.Metrics[j].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want finite and positive", res.Workload, d.Name, v)
			}
		}
		if len(res.Metrics) != len(m.EndToEnd) {
			t.Errorf("%s reports %d end-to-end metrics, BENCHMARK.json declares %d", res.Workload, len(res.Metrics), len(m.EndToEnd))
		}
	}

	if testing.Short() {
		return // the traced runs are the slow half, and -race -short runs in CI
	}
	// One serving and one learning workload: together they take both
	// branches of every traced section.
	for _, w := range []string{"serve-http-reload", "online-e2e"} {
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		last := invoke("-workload", w, "-trace", "1", "-seed", "2")
		if err := json.Unmarshal(last, &line); err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(last, &keys); err != nil || len(keys) != 4 {
			t.Errorf("%s: result line has keys %v, want exactly correct, attempted, failed, metrics", w, keys)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("%s traced: correct %v attempted %d failed %d", w, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(m.PerLayer) {
			t.Errorf("%s traced reports %d metrics, BENCHMARK.json declares %d per layer", w, len(line.Metrics), len(m.PerLayer))
		}
		for _, d := range m.PerLayer {
			got, ok := line.Metrics[d.Name]
			if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != d.Unit {
				t.Errorf("%s traced: %s = %+v (present %v), want finite in %s", w, d.Name, got, ok, d.Unit)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace.json")); err != nil {
			t.Errorf("%s traced: %v", w, err)
		}
	}
}
