package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dronerl/internal/dist"
	"dronerl/internal/env"
	"dronerl/internal/nn"
)

// TestRunRejectsBadInput: an unknown -config and an empty -addr exit 2 with
// the usage on stderr, before anything listens.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", "L9", "-addr", "127.0.0.1:0"}, "L9"},
		{[]string{"-addr", ""}, "-addr"},
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

// TestRunRefusesCorruptCheckpoint: a -checkpoint file this build cannot
// read — here a layout-1 gob checkpoint — exits 1 saying to delete it,
// before anything listens.
func TestRunRefusesCorruptCheckpoint(t *testing.T) {
	old := filepath.Join("..", "..", "internal", "dist", "testdata", "layout1.ckpt")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-checkpoint", old}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "(delete it to start over)") || stdout.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q: want only the delete hint on stderr", stdout.String(), stderr.String())
	}
}

// TestRunTrainsOneActor runs the learner on a free port and flies one actor
// against it through a small L3 mission: the learner exits 0 and its stats
// JSON counts every env step and no dropped session.
func TestRunTrainsOneActor(t *testing.T) {
	const steps = 160
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pr, pw := io.Pipe()
	defer pr.Close() // a failed test stops reading; run must not block writing
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		code := run(ctx, []string{"-addr", "127.0.0.1:0", "-config", "L3", "-slots", "1",
			"-steps", "160", "-idle", "30s"}, pw, &stderr)
		pw.Close()
		exit <- code
	}()
	out := bufio.NewScanner(pr)
	out.Buffer(nil, 1<<20)
	if !out.Scan() {
		t.Fatalf("no listening line; exit %d, stderr %q", <-exit, stderr.String())
	}
	addr := regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`).FindStringSubmatch(out.Text())
	if addr == nil {
		t.Fatalf("first line %q names no address", out.Text())
	}
	actor, err := dist.RunActor(ctx, dist.ActorConfig{
		Addr: addr[1], Spec: nn.NavNetSpec(), World: env.IndoorApartment(2), Steps: steps, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if actor.Sent != steps || actor.Undelivered != 0 {
		t.Errorf("actor sent %d of %d, %d undelivered", actor.Sent, steps, actor.Undelivered)
	}
	var lines []string
	for out.Scan() {
		lines = append(lines, out.Text())
	}
	if code := <-exit; code != 0 {
		t.Fatalf("learner exit %d, stderr %q", code, stderr.String())
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "dronerl-learner: done") {
		t.Fatalf("learner printed %q after listening, want the done line and the stats JSON", lines)
	}
	var st dist.LearnerStats
	if err := json.Unmarshal([]byte(lines[1]), &st); err != nil {
		t.Fatal(err)
	}
	if st.EnvSteps != steps || st.DropReasons != (dist.DropReasons{}) {
		t.Errorf("learner stats %+v: want %d env steps and no dropped session", st, steps)
	}
	if st.TrainSteps == 0 {
		t.Error("the learner never trained")
	}
}
