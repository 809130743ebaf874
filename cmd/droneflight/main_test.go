package main

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestRunRejectsBadInput: an unknown -config, -backend or -env and
// -actors 0 exit 2 with the usage on stderr, before any training runs.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", "L9"}, "L9"},
		{[]string{"-backend", "warpdrive"}, "warpdrive"},
		{[]string{"-train-backend", "warpdrive"}, "warpdrive"},
		{[]string{"-env", "nowhere"}, "nowhere"},
		{[]string{"-actors", "0"}, "actor count 0"},
		{[]string{"-bogus"}, "bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %q to stdout", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) || !strings.Contains(stderr.String(), "Usage") {
			t.Errorf("%q: stderr %q does not name %q with the usage", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestRunList prints the scenario catalog, generated families included.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	for _, name := range []string{"scenario catalog", "indoor-apartment", "gen-indoor-sparse", "outdoor-town"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output does not name %q", name)
		}
	}
}

// TestRunFlightGolden flies a small seeded single-actor experiment (the
// deterministic serial schedule) and compares its report byte for byte with
// testdata/flight.golden, captured at 6dfb4a9 before the online learner was
// folded into one loop. Like the other float pins it holds on amd64 only,
// where no multiply-add is fused.
func TestRunFlightGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden was captured on amd64; %s rounds differently", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/flight.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-meta", "40", "-online", "80", "-eval", "40", "-seed", "3"}
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Errorf("droneflight %s printed\n%s\nwant\n%s", strings.Join(args, " "), got, want)
	}
}
