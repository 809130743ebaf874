package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRunRejectsBadInput: a bad flag, an unknown sweep or config and a
// frame count below one exit 2 with usage on stderr and nothing on stdout.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "bogus"},
		{"-sweep", "timeline", "-config", "L9"},
		{"-sweep", "backend", "-frames", "0"},
		{"-frames", "-3"},
		{"-no-such-flag"},
		{"-sweep", "batch", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %q to stdout", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage of hwsim") {
			t.Errorf("%q: stderr %q carries no usage", args, stderr.String())
		}
	}
}

// TestRunEverySweep: each sweep prints a table and exits 0, and a config is
// matched without regard to case.
func TestRunEverySweep(t *testing.T) {
	for _, s := range sweeps {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-sweep", s, "-config", "l3", "-frames", "2"}, &stdout, &stderr); code != 0 {
			t.Errorf("-sweep %s: exit %d, stderr %q", s, code, stderr.String())
		}
		if stdout.Len() == 0 || stderr.Len() != 0 {
			t.Errorf("-sweep %s: stdout %d bytes, stderr %q", s, stdout.Len(), stderr.String())
		}
	}
}

// TestSweepBackendGolden pins -sweep backend's output to the bytes captured
// at 171c5ea, while the systolic backend still answered through a float
// emulation of the PE array: the per-frame price list must not move with
// the engine behind the replies.
func TestSweepBackendGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sweep_backend.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sweep", "backend"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("-sweep backend output moved:\n%s\nwant:\n%s", got, want)
	}
}
