package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"dronerl/internal/dist"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

// TestRunRejectsBadInput: an unknown -env and an empty -addr exit 2 with the
// usage on stderr, before anything dials.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-env", "nowhere"}, "nowhere"},
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

// TestRunFliesAgainstLearner flies the command against an in-process
// learner on a free port through a small L3 mission: the actor exits 0 and
// its stats JSON reports every step delivered, and the learner received
// them all with no dropped session.
func TestRunFliesAgainstLearner(t *testing.T) {
	const steps = 160
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	learner, err := dist.NewLearner(dist.LearnerConfig{
		Agent: rl.NewAgent(nn.NavNetSpec(), nn.L3, rl.Options{Seed: 1}), Spec: nn.NavNetSpec(), Cfg: nn.L3,
		Listener: ln, ActorSlots: 1, TotalSteps: steps, IdleTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		st  dist.LearnerStats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := learner.Run(ctx)
		done <- result{st, err}
	}()

	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-addr", ln.Addr().String(), "-steps", "160", "-seed", "3"}, &stdout, &stderr); code != 0 {
		t.Fatalf("actor exit %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("actor printed %q, want the flying line, the done line and the stats JSON", lines)
	}
	var st dist.ActorStats
	if err := json.Unmarshal([]byte(lines[2]), &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != steps || st.Sent != steps || st.Undelivered != 0 || st.Dropped != 0 {
		t.Errorf("actor stats %+v: want %d steps all delivered", st, steps)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.st.EnvSteps != steps || r.st.DropReasons != (dist.DropReasons{}) {
		t.Errorf("learner stats %+v: want %d env steps and no dropped session", r.st, steps)
	}
}
