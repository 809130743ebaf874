package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dronerl/internal/nn"
	"dronerl/internal/qnn"
	"dronerl/internal/tensor"
)

// TestRunRejectsBadInput: an unknown backend exits 2 naming the registry, an
// unreadable model exits 2 naming the file, and neither starts a listener.
func TestRunRejectsBadInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such.gob")
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-backend", "warpdrive", "-addr", "127.0.0.1:0"}, []string{"warpdrive", "float", "quant", "systolic"}},
		{[]string{"-model", missing, "-addr", "127.0.0.1:0"}, []string{missing}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %q to stdout", tc.args, stdout.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("%q: stderr %q does not name %q", tc.args, stderr.String(), w)
			}
		}
	}
}

// TestRunServesQuantAndDrains boots the quant daemon on a free port, checks
// one POST /v1/act answers exactly the Q-values qnn.Backend.Infer gives for
// the same seeded policy and frame, then cancels the context and expects a
// drain: exit 0 and the summary line counting the one request.
func TestRunServesQuantAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	defer pr.Close() // a failed test stops reading; run must not block writing
	var stderr bytes.Buffer
	exit := make(chan int, 1)
	go func() {
		code := run(ctx, []string{"-backend", "quant", "-addr", "127.0.0.1:0", "-seed", "7"}, pw, &stderr)
		pw.Close()
		exit <- code
	}()
	out := bufio.NewScanner(pr)
	out.Buffer(nil, 1<<20)
	if !out.Scan() {
		t.Fatalf("no listening line; exit %d, stderr %q", <-exit, stderr.String())
	}
	addr := regexp.MustCompile(`http://(127\.0\.0\.1:\d+)`).FindStringSubmatch(out.Text())
	if addr == nil {
		t.Fatalf("first line %q names no address", out.Text())
	}

	spec := nn.NavNetSpec()
	obs := make([]float32, spec.InputC*spec.InputH*spec.InputW)
	rng := rand.New(rand.NewSource(8))
	for i := range obs {
		obs[i] = rng.Float32()
	}
	body, err := json.Marshal(map[string][]float32{"obs": obs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr[1]+"/v1/act", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reply struct {
		Q []float32 `json:"q"`
	}
	err = json.NewDecoder(resp.Body).Decode(&reply)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/act: status %d, decode error %v", resp.StatusCode, err)
	}

	snap, err := loadPolicy("", 7)
	if err != nil {
		t.Fatal(err)
	}
	net := spec.Build()
	if err := snap.Restore(net); err != nil {
		t.Fatal(err)
	}
	b, err := qnn.NewBackend(net)
	if err != nil {
		t.Fatal(err)
	}
	want := b.Infer(tensor.FromSlice(obs, spec.InputC, spec.InputH, spec.InputW))
	if !slices.Equal(reply.Q, want) {
		t.Errorf("daemon answered %v, qnn.Backend.Infer %v", reply.Q, want)
	}

	cancel()
	var rest []string
	for out.Scan() {
		rest = append(rest, out.Text())
	}
	if code := <-exit; code != 0 {
		t.Fatalf("exit %d after cancel, stderr %q", code, stderr.String())
	}
	if len(rest) == 0 || !strings.HasPrefix(rest[0], "dronerl-serve: drained; served=1 ") {
		t.Errorf("after cancel printed %q, want the drain summary of one request first", rest)
	}
}
