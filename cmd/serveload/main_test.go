package main

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"strings"
	"testing"

	"dronerl/internal/nn"
	"dronerl/internal/serve"

	_ "dronerl/internal/hw" // register the quant backend
)

// TestRunRejectsBadInput: a bad flag, a zero count and a stray argument exit
// 2 with usage on stderr and nothing on stdout.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-n", "0"},
		{"-addr", "127.0.0.1:1", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote %q to stdout", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "Usage of serveload") {
			t.Errorf("%q: stderr %q carries no usage", args, stderr.String())
		}
	}
}

// TestRunBurstWithReload fires a short burst with one hot reload at an
// in-process quant daemon and expects exit 0, every request answered, the
// reload published and the batch source named.
func TestRunBurstWithReload(t *testing.T) {
	spec := nn.NavNetSpec()
	policy := spec.Build()
	policy.Init(rand.New(rand.NewSource(4)))
	s, err := serve.New(serve.Config{Snapshot: nn.TakeSnapshot(policy, spec.Name), Backend: "quant"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("daemon shut down with %v", err)
		}
	}()

	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-addr", ln.Addr().String(), "-n", "40", "-c", "4", "-reload"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"40/40 ok", "mid-burst reload published policy version 2", "batches served by quant/InferBatch"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout %q lacks %q", stdout.String(), want)
		}
	}
}

// TestRunUnreachableExits1: with nothing listening every request fails, and
// the run reports it with exit 1.
func TestRunUnreachableExits1(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // the port is free again: connections are refused
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-addr", addr, "-n", "2", "-c", "1", "-reload"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "0/2 ok") || !strings.Contains(stderr.String(), "reload never took effect") {
		t.Errorf("stdout %q, stderr %q: want the lost requests and the undone reload reported", stdout.String(), stderr.String())
	}
}
