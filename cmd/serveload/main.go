// Command serveload is the load generator for dronerl-serve: it fires a
// burst of concurrent inference requests, optionally hot-reloads the policy
// mid-burst, treats 429 backpressure as a retry signal rather than a
// failure, and exits nonzero if any request is lost or answered
// incorrectly-shaped.
//
// Usage:
//
//	serveload -addr 127.0.0.1:8080 [-n 200] [-c 8] [-reload] [-chaos] [-seed 1]
//
// With -reload it POSTs a freshly initialized snapshot once half the
// responses are in, then asserts the daemon's policy version advanced and
// that later responses carry it — the mid-burst zero-downtime check the CI
// smoke test runs.
//
// With -chaos it additionally runs a saboteur alongside the burst: raw TCP
// connections that send partial requests — cut mid-header or mid-body —
// and then slam shut with an RST. None of those count as admitted work;
// the assertion is that every one of the -n well-formed requests is still
// answered and the daemon's /healthz stays green after the abuse.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"time"

	"dronerl/internal/nn"
)

type actReply struct {
	Action        int       `json:"action"`
	Q             []float32 `json:"q"`
	PolicyVersion uint64    `json:"policy_version"`
	Batch         int       `json:"batch"`
}

func main() {
	// Ctrl-C abandons the requests in flight instead of killing the process
	// mid-report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// syncWriter serializes the writes of the burst's goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// run is the whole command: it fires the burst, prints the report to stdout
// and returns the exit status — 2 with usage on stderr for a bad flag or
// argument, 1 if any request is lost or malformed, the reload does not take
// effect or the daemon is unhealthy after chaos.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serveload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "dronerl-serve address")
	n := fs.Int("n", 200, "total requests")
	c := fs.Int("c", 8, "concurrent clients")
	reload := fs.Bool("reload", false, "hot-reload a fresh policy after n/2 responses")
	chaos := fs.Bool("chaos", false, "abort raw connections mid-request alongside the burst")
	seed := fs.Int64("seed", 1, "observation and reload-policy seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n < 1 || *c < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "serveload: -n and -c must be at least 1, and no arguments follow the flags")
		fs.Usage()
		return 2
	}
	stdout, stderr = &syncWriter{w: stdout}, &syncWriter{w: stderr}

	base := "http://" + *addr
	// One keep-alive connection per client plus the reloader's:
	// http.DefaultClient keeps two idle connections per host and would
	// redial on almost every request at -c 8, timing connect(2) instead of
	// the daemon.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *c + 1}}
	// Hang up when done: a connection the transport dialed but never used
	// would otherwise hold a draining daemon for its new-connection grace.
	defer client.CloseIdleConnections()
	spec := nn.NavNetSpec()
	obsLen := spec.InputC * spec.InputH * spec.InputW

	var (
		done      atomic.Int64 // successful responses
		retries   atomic.Int64 // 429s retried
		failed    atomic.Int64
		reloadedV atomic.Uint64 // version the mid-burst reload published
	)

	// Pre-generate per-client observation streams so the workers share
	// nothing mutable.
	perClient := (*n + *c - 1) / *c
	streams := make([][][]float32, *c)
	rng := rand.New(rand.NewSource(*seed))
	total := 0
	for i := range streams {
		for j := 0; j < perClient && total < *n; j++ {
			obs := make([]float32, obsLen)
			for k := range obs {
				obs[k] = rng.Float32()
			}
			streams[i] = append(streams[i], obs)
			total++
		}
	}

	// The mid-burst reloader: waits for half the responses, then publishes
	// a fresh policy and records the version the daemon assigned. A burst
	// that ends first leaves the reload undone, reported below.
	var reloadWG sync.WaitGroup
	burstOver := make(chan struct{})
	if *reload {
		reloadWG.Add(1)
		go func() {
			defer reloadWG.Done()
			for done.Load() < int64(*n)/2 {
				select {
				case <-burstOver:
					return
				case <-time.After(time.Millisecond):
				}
			}
			net := spec.Build()
			net.Init(rand.New(rand.NewSource(*seed + 1000)))
			var buf bytes.Buffer
			if err := nn.TakeSnapshot(net, spec.Name).Encode(&buf); err != nil {
				fmt.Fprintln(stderr, "serveload: encoding reload snapshot:", err)
				failed.Add(1)
				return
			}
			resp, err := post(ctx, client, base+"/v1/policy", "application/octet-stream", &buf)
			if err != nil {
				fmt.Fprintln(stderr, "serveload: reload POST:", err)
				failed.Add(1)
				return
			}
			defer resp.Body.Close()
			var rv struct {
				PolicyVersion uint64 `json:"policy_version"`
			}
			err = json.NewDecoder(resp.Body).Decode(&rv)
			io.Copy(io.Discard, resp.Body) // drained, the connection goes back to the pool
			if err != nil || resp.StatusCode != http.StatusOK {
				fmt.Fprintf(stderr, "serveload: reload rejected: status %d err %v\n", resp.StatusCode, err)
				failed.Add(1)
				return
			}
			reloadedV.Store(rv.PolicyVersion)
			fmt.Fprintf(stdout, "serveload: mid-burst reload published policy version %d\n", rv.PolicyVersion)
		}()
	}

	// The saboteur: while the burst runs, open raw TCP connections, write a
	// truncated request — cut anywhere from mid-header to mid-body — then
	// slam the connection shut with an RST. None of these count as admitted
	// work; the daemon must shrug them off without losing a single
	// well-formed request.
	var (
		sabotaged atomic.Int64
		sabWG     sync.WaitGroup
	)
	sabStop := make(chan struct{})
	if *chaos {
		body, err := json.Marshal(map[string]any{"obs": streams[0][0]})
		if err != nil {
			fmt.Fprintln(stderr, "serveload:", err)
			return 1
		}
		full := fmt.Sprintf("POST /v1/act HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			*addr, len(body), body)
		for g := 0; g < 2; g++ {
			sabWG.Add(1)
			go func(g int) {
				defer sabWG.Done()
				rng := rand.New(rand.NewSource(*seed + 2000 + int64(g)))
				for {
					select {
					case <-sabStop:
						return
					default:
					}
					conn, err := net.Dial("tcp", *addr)
					if err != nil {
						time.Sleep(time.Millisecond)
						continue
					}
					cut := 1 + rng.Intn(len(full)-1)
					io.WriteString(conn, full[:cut])
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
					if tc, ok := conn.(*net.TCPConn); ok {
						tc.SetLinger(0) // RST, not FIN: the rudest way to vanish
					}
					conn.Close()
					sabotaged.Add(1)
				}
			}(g)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *c; i++ {
		wg.Add(1)
		go func(stream [][]float32) {
			defer wg.Done()
			for _, obs := range stream {
				if err := fire(ctx, client, base, obs, &retries); err != nil {
					fmt.Fprintln(stderr, "serveload:", err)
					failed.Add(1)
					continue
				}
				done.Add(1)
			}
		}(streams[i])
	}
	wg.Wait()
	close(burstOver)
	close(sabStop)
	sabWG.Wait()
	reloadWG.Wait()
	elapsed := time.Since(start)

	ok := done.Load()
	fmt.Fprintf(stdout, "serveload: %d/%d ok, %d retried-429, %d failed in %v (%.0f req/s)\n",
		ok, *n, retries.Load(), failed.Load(), elapsed.Round(time.Millisecond),
		float64(ok)/elapsed.Seconds())

	// Attribute the burst to a kernel: the gate log should show whether the
	// coalesced batches actually hit the backend's batched entry or fell
	// back to per-sample execution.
	if err := printBatchSource(ctx, client, base, stdout); err != nil {
		fmt.Fprintln(stderr, "serveload:", err)
		failed.Add(1)
	}

	if *reload {
		v := reloadedV.Load()
		if v < 2 {
			fmt.Fprintln(stderr, "serveload: reload never took effect")
			failed.Add(1)
		} else if err := assertVersion(ctx, client, base, v); err != nil {
			fmt.Fprintln(stderr, "serveload:", err)
			failed.Add(1)
		}
	}
	if *chaos {
		fmt.Fprintf(stdout, "serveload: chaos aborted %d connections mid-request\n", sabotaged.Load())
		if err := assertHealthy(ctx, client, base); err != nil {
			fmt.Fprintln(stderr, "serveload:", err)
			failed.Add(1)
		}
	}
	if failed.Load() > 0 || ok != int64(*n) {
		return 1
	}
	return 0
}

// get and post are http.Client's Get and Post under ctx.
func get(ctx context.Context, client *http.Client, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return client.Do(req)
}

func post(ctx context.Context, client *http.Client, url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return client.Do(req)
}

// printBatchSource reads /statsz and reports which kernel served the burst's
// batches — e.g. "quant/InferBatch" with the counts of batches that ran the
// batched kernel versus the per-sample fallback, and the size histogram.
func printBatchSource(ctx context.Context, client *http.Client, base string, stdout io.Writer) error {
	resp, err := get(ctx, client, base+"/statsz")
	if err != nil {
		return fmt.Errorf("statsz after burst: %w", err)
	}
	defer resp.Body.Close()
	var st struct {
		Backend        string        `json:"backend"`
		BatchSource    string        `json:"batch_source"`
		BatchedBatches int64         `json:"batched_batches"`
		SerialBatches  int64         `json:"serial_batches"`
		MeanBatch      float64       `json:"mean_batch"`
		BatchHist      map[int]int64 `json:"batch_hist"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("statsz after burst: status %d err %v", resp.StatusCode, err)
	}
	fmt.Fprintf(stdout, "serveload: batches served by %s: %d batched-kernel, %d per-sample (mean batch %.2f, hist %v)\n",
		st.BatchSource, st.BatchedBatches, st.SerialBatches, st.MeanBatch, st.BatchHist)
	return nil
}

// assertHealthy checks the daemon still answers /healthz — the post-chaos
// "is anybody home" probe.
func assertHealthy(ctx context.Context, client *http.Client, base string) error {
	resp, err := get(ctx, client, base+"/healthz")
	if err != nil {
		return fmt.Errorf("healthz after chaos: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz after chaos: status %d", resp.StatusCode)
	}
	return nil
}

// fire sends one act request, retrying bounded times on 429 backpressure.
// Every reply is read to its end before Close, so the connection is reused.
func fire(ctx context.Context, client *http.Client, base string, obs []float32, retries *atomic.Int64) error {
	body, err := json.Marshal(map[string]any{"obs": obs})
	if err != nil {
		return err
	}
	backoff := time.Millisecond
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := post(ctx, client, base+"/v1/act", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var rep actReply
			if err := json.Unmarshal(payload, &rep); err != nil {
				return fmt.Errorf("undecodable reply: %w", err)
			}
			if len(rep.Q) == 0 || rep.Action < 0 || rep.Action >= len(rep.Q) || rep.PolicyVersion == 0 {
				return fmt.Errorf("malformed reply %+v", rep)
			}
			return nil
		case http.StatusTooManyRequests:
			// Backpressure working as designed: back off and retry.
			retries.Add(1)
			time.Sleep(backoff)
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
		default:
			return fmt.Errorf("act: status %d: %s", resp.StatusCode, payload)
		}
	}
	return fmt.Errorf("act: still backpressured after 50 attempts")
}

// assertVersion checks the daemon reports (at least) the expected policy
// version and that a fresh request is answered under it.
func assertVersion(ctx context.Context, client *http.Client, base string, want uint64) error {
	resp, err := get(ctx, client, base+"/v1/policy")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rv struct {
		PolicyVersion uint64 `json:"policy_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rv); err != nil {
		return err
	}
	if rv.PolicyVersion < want {
		return fmt.Errorf("policy version %d after reload, want at least %d", rv.PolicyVersion, want)
	}
	return nil
}
