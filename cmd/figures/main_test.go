package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFig12 prints both Fig. 12 tables, each with a row per layer from
// CONV1 to FC5, and nothing on stderr.
func TestRunFig12(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-artifact", "fig12"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr %q", stderr.String())
	}
	out := stdout.String()
	for _, table := range []string{"Fig. 12(a)", "Fig. 12(b)"} {
		i := strings.Index(out, table)
		if i < 0 {
			t.Fatalf("no %s table in %q", table, out)
		}
		body := out[i:]
		if j := strings.Index(body[1:], "Fig. 12("); j >= 0 {
			body = body[:j+1]
		}
		for _, layer := range []string{"CONV1", "CONV2", "CONV3", "CONV4", "CONV5", "FC1", "FC2", "FC3", "FC4", "FC5"} {
			if !strings.Contains(body, "\n"+layer+"+ReLU") {
				t.Errorf("%s has no %s row", table, layer)
			}
		}
	}
}

// TestRunRejectsBadInput: an unknown artifact or scale, a bad flag, a
// stray argument and a flight-only flag without a flight artifact exit 2
// with usage on stderr and nothing on stdout.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-artifact", "fig99"},
		{"-artifact", "fig12", "-scale", "bogus"},
		{"-no-such-flag"},
		{"-artifact", "fig12", "extra"},
		{"-artifact", "fig12", "-scale", "full"},
		{"-artifact", "table1", "-progress"},
		{"-artifact", "fig9", "-scale", "quick"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %q to stdout", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage of figures") {
			t.Errorf("%q: stderr %q carries no usage", args, stderr.String())
		}
	}
	var stderr bytes.Buffer
	run(context.Background(), []string{"-artifact", "fig99"}, new(bytes.Buffer), &stderr)
	if !strings.Contains(stderr.String(), "fig12") || !strings.Contains(stderr.String(), "table1") {
		t.Errorf("unknown artifact: stderr %q does not name the valid set", stderr.String())
	}
	stderr.Reset()
	run(context.Background(), []string{"-artifact", "fig12", "-progress"}, new(bytes.Buffer), &stderr)
	if !strings.Contains(stderr.String(), "-progress") {
		t.Errorf("flight-only flag: stderr %q does not name it", stderr.String())
	}
}

// TestRunWritesCSVs: -csv writes every hardware table as a CSV file.
func TestRunWritesCSVs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-artifact", "fig12", "-csv", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, name := range []string{"fig1_minfps.csv", "fig12a_forward.csv", "fig12b_backward.csv", "fig13a_fps.csv", "fig13b_summary.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte(",")) {
			t.Errorf("%s is not a CSV: %q", name, b)
		}
	}
}

// TestRunCSVWriteErrorExits1: a -csv directory under a regular file cannot
// be made, and the command says so and exits 1.
func TestRunCSVWriteErrorExits1(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-artifact", "fig12", "-csv", filepath.Join(file, "out")}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "writing CSVs") {
		t.Errorf("stderr %q does not name the failure", stderr.String())
	}
}
