package dronerl

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"testing"

	"dronerl/internal/nn"
)

// TestServeFacade serves through the root API on a listener bound to a free
// port before serving starts, so no request can race the bind and none
// polls for readiness. It round-trips one inference and a hot reload over
// HTTP and checks ctx cancellation drains cleanly — the facade-level
// acceptance of the serving subsystem. The one-call Serve binds its own
// address: it returns the bind error for a taken one, and nil once
// cancelled.
func TestServeFacade(t *testing.T) {
	spec := nn.NavNetSpec()
	build := func(seed int64) *nn.Snapshot {
		net := spec.Build()
		net.Init(rand.New(rand.NewSource(seed)))
		return nn.TakeSnapshot(net, spec.Name)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := Serve(context.Background(), ServeConfig{Addr: ln.Addr().String(), Snapshot: build(1)}); err == nil {
		t.Fatal("Serve on a taken address returned nil")
	}
	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := Serve(cancelled, ServeConfig{Addr: "127.0.0.1:0", Snapshot: build(1), Workers: 1}); err != nil {
		t.Fatalf("Serve returned %v on cancellation, want nil", err)
	}

	srv, err := NewServer(ServeConfig{Snapshot: build(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	obs := make([]float32, nn.NavNetInput*nn.NavNetInput)
	body, _ := json.Marshal(map[string]any{"obs": obs})
	resp, err := http.Post(base+"/v1/act", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Action        int       `json:"action"`
		Q             []float32 `json:"q"`
		PolicyVersion uint64    `json:"policy_version"`
	}
	json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(rep.Q) != 5 || rep.PolicyVersion != 1 {
		t.Fatalf("act: status %d reply %+v", resp.StatusCode, rep)
	}

	var gobBuf bytes.Buffer
	if err := build(2).Encode(&gobBuf); err != nil {
		t.Fatal(err)
	}
	r2, err := http.Post(base+"/v1/policy", "application/octet-stream", &gobBuf)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", r2.StatusCode)
	}

	var st ServeStats
	r3, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r3.Body).Decode(&st)
	r3.Body.Close()
	if st.PolicyVersion != 2 || st.Served != 1 {
		t.Fatalf("stats %+v", st)
	}

	cancel()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v on cancellation, want nil", err)
	}
}
