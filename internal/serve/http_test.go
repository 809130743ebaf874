package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startHTTP boots a full server on a loopback port and returns its base URL
// and a shutdown function that asserts a clean exit.
func startHTTP(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	s, err := New(cfg)
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
	stop := func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve returned %v, want nil on graceful shutdown", err)
		}
	}
	return s, "http://" + ln.Addr().String(), stop
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func TestHTTPEndpoints(t *testing.T) {
	snapA, _ := freshPolicy(t, 30)
	snapB, _ := freshPolicy(t, 31)
	s, base, stop := startHTTP(t, Config{Snapshot: snapA, Workers: 2, MaxBatch: 8})

	// Health and initial policy version.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var pv struct {
		PolicyVersion uint64 `json:"policy_version"`
	}
	resp, err = http.Get(base + "/v1/policy")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&pv)
	resp.Body.Close()
	if pv.PolicyVersion != 1 {
		t.Fatalf("initial policy version %d, want 1", pv.PolicyVersion)
	}

	// A valid act round trip.
	rng := rand.New(rand.NewSource(32))
	resp, body := postJSON(t, base+"/v1/act", map[string]any{"obs": randObs(rng)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("act: %d %s", resp.StatusCode, body)
	}
	var rep Reply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.PolicyVersion != 1 || rep.Action < 0 || rep.Action >= len(rep.Q) || len(rep.Q) == 0 {
		t.Fatalf("act reply %+v", rep)
	}

	// Malformed and mis-shaped requests.
	resp, _ = postJSON(t, base+"/v1/act", map[string]any{"obs": []float32{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short obs: %d, want 400", resp.StatusCode)
	}

	// The door says how it is used: both posts so far were the canonical
	// shape, so neither went through encoding/json; an upper-case key is
	// still accepted, by the fallback, and is counted.
	if st := s.Stats(); st.ActDecoded != 2 || st.ActFallbacks != 0 || st.ActDecodeUsMean <= 0 {
		t.Errorf("after two canonical posts: act_decoded %d act_fallbacks %d act_decode_us_mean %v, want 2, 0, > 0",
			st.ActDecoded, st.ActFallbacks, st.ActDecodeUsMean)
	}
	resp, body = postJSON(t, base+"/v1/act", map[string]any{"OBS": randObs(rng)})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("upper-case key: %d %s, want 200", resp.StatusCode, body)
	}
	if st := s.Stats(); st.ActDecoded != 3 || st.ActFallbacks != 1 {
		t.Errorf("after one {\"OBS\":[...]}: act_decoded %d act_fallbacks %d, want 3 and 1", st.ActDecoded, st.ActFallbacks)
	}

	r2, err := http.Post(base+"/v1/act", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", r2.StatusCode)
	}

	// Hot reload over HTTP: gob body, version bumps, new requests see it.
	var gobBuf bytes.Buffer
	if err := snapB.Encode(&gobBuf); err != nil {
		t.Fatal(err)
	}
	r3, err := http.Post(base+"/v1/policy", "application/octet-stream", &gobBuf)
	if err != nil {
		t.Fatal(err)
	}
	var rv struct {
		PolicyVersion uint64 `json:"policy_version"`
	}
	json.NewDecoder(r3.Body).Decode(&rv)
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK || rv.PolicyVersion != 2 {
		t.Fatalf("policy POST: %d version %d, want 200 version 2", r3.StatusCode, rv.PolicyVersion)
	}
	resp, body = postJSON(t, base+"/v1/act", map[string]any{"obs": randObs(rng)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("act after reload: %d %s", resp.StatusCode, body)
	}
	json.Unmarshal(body, &rep)
	if rep.PolicyVersion != 2 {
		t.Errorf("act after reload served version %d, want 2", rep.PolicyVersion)
	}

	// Snapshot rejections: undecodable body and wrong architecture.
	r4, err := http.Post(base+"/v1/policy", "application/octet-stream", strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage snapshot: %d, want 400", r4.StatusCode)
	}
	wrongArch, _ := freshPolicy(t, 33)
	wrongArch.Arch = "ModifiedAlexNet"
	gobBuf.Reset()
	wrongArch.Encode(&gobBuf)
	r5, err := http.Post(base+"/v1/policy", "application/octet-stream", &gobBuf)
	if err != nil {
		t.Fatal(err)
	}
	r5.Body.Close()
	if r5.StatusCode != http.StatusConflict {
		t.Errorf("wrong-arch snapshot: %d, want 409", r5.StatusCode)
	}
	if v := s.PolicyVersion(); v != 2 {
		t.Errorf("rejected posts moved the version to %d", v)
	}

	// Stats reflect the traffic and the ledger.
	r6, err := http.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(r6.Body).Decode(&st)
	r6.Body.Close()
	if st.Served < 2 || st.PolicyVersion != 2 || st.Reloads != 1 {
		t.Errorf("stats %+v", st)
	}
	// Five act bodies arrived whole; the upper-case key and "{nope" were not
	// the canonical shape.
	if st.ActDecoded != 5 || st.ActFallbacks != 2 {
		t.Errorf("/statsz act_decoded %d act_fallbacks %d, want 5 and 2", st.ActDecoded, st.ActFallbacks)
	}
	if st.Backend != "float" || st.Workers != 2 || st.QueueCap != 256 {
		t.Errorf("config echo wrong: %+v", st)
	}
	if len(st.Devices) == 0 || st.TotalEnergyMJ <= 0 {
		t.Errorf("ledger missing from stats: %+v", st.Devices)
	}

	// Graceful shutdown: Serve returns nil, the port closes.
	stop()
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestHTTPBackpressure checks the 429 path end to end: queue at capacity →
// immediate rejection with Retry-After, zero requests lost.
func TestHTTPBackpressure(t *testing.T) {
	snap, _ := freshPolicy(t, 34)
	s, err := New(Config{Snapshot: snap, Workers: 1, MaxBatch: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Workers intentionally not started: the queue cannot drain.
	srv := s.Handler()

	rng := rand.New(rand.NewSource(35))
	obs, _ := json.Marshal(map[string]any{"obs": randObs(rng)})

	// Fill the queue through the in-process path.
	parked := randObs(rng)
	go s.Infer(context.Background(), parked)
	for len(s.queue) < 1 {
		time.Sleep(time.Millisecond)
	}

	req := httptest.NewRequest("POST", "/v1/act", bytes.NewReader(obs))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated queue: %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 must carry Retry-After")
	}
	s.Start() // drain the parked request before Close
}

// TestHTTPBodyLimits exercises the request-body hardening: an /v1/act body
// past the size cap draws 413 (not a hung read or a misleading 400), and a
// policy snapshot truncated mid-upload draws 400 with the shared
// nn.ErrSnapshotTruncated diagnosis — never a partial install.
func TestHTTPBodyLimits(t *testing.T) {
	snap, _ := freshPolicy(t, 90)
	s, base, stop := startHTTP(t, Config{Snapshot: snap, Workers: 1, MaxBatch: 1})
	defer stop()

	// Valid JSON that keeps the decoder reading past the 16 MB cap.
	huge := "{\"obs\":[" + strings.Repeat("1,", 9<<20) + "1]}"
	resp, err := http.Post(base+"/v1/act", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized act body: %d, want 413", resp.StatusCode)
	}

	// A snapshot cut off mid-gob: 400, diagnosed as truncated, version
	// untouched.
	var buf bytes.Buffer
	if err := snap.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	resp, err = http.Post(base+"/v1/policy", "application/octet-stream", bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	var msg struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&msg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated snapshot: %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(msg.Error, "truncated") {
		t.Fatalf("truncated snapshot error %q does not name the truncation", msg.Error)
	}
	if v := s.PolicyVersion(); v != 1 {
		t.Fatalf("policy version %d after rejected uploads, want 1", v)
	}
}
