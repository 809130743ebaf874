package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dronerl/internal/nn"
	"dronerl/internal/qnn"
	"dronerl/internal/serve"
	"dronerl/internal/tensor"
)

// serveKind selects one serving workload.
type serveKind struct {
	backend string
	http    bool // clients POST /v1/act over loopback; false calls Server.Infer in-process
	reload  bool // a reloader POSTs /v1/policy every reloadEvery beside the clients
	segOps  int  // requests per segment at scale 1
}

const (
	// obsPerClient sizes the observation pool at scale 1: enough distinct
	// frames that no reply can be right by accident, few enough to
	// pre-compute every expected answer.
	obsPerClient = 32
	// reloadSnapshots is how many distinct policies the reloader cycles
	// through; version v always carries snapshot (v-1) mod reloadSnapshots,
	// which is what lets a client check a reply against the right weights.
	reloadSnapshots = 4
	reloadEvery     = 50 * time.Millisecond
	// maxVersions bounds the first-seen table of policy versions (one
	// reload per 50 ms for a 60 s run is 1200).
	maxVersions = 4096
)

// serveInstance is a running server plus everything the clients need to
// drive and check it.
type serveInstance struct {
	c    config
	kind serveKind
	srv  *serve.Server

	stop      context.CancelFunc // ends Server.Serve (http only)
	served    chan error         // Server.Serve's return value
	closeOnce sync.Once
	closeErr  error
	url       string
	client    *http.Client

	perClient int         // frames each client cycles through
	obs       [][]float32 // the frame pool; client k owns obs[k*perClient : (k+1)*perClient]
	bodies    [][]byte    // obs pre-marshalled as POST /v1/act bodies
	snaps     [][]byte    // gob-encoded policies the reloader posts; snaps[0] is the initial one
	want      [][][]float32

	lastVersion []uint64       // per client: versions must never go backwards
	reloads     uint64         // reloads posted so far; the next one must return version reloads+2
	firstSeen   []atomic.Int64 // unix ns a client first saw each policy version
	reloadPost  []float64      // ms, one per reload: POST start to 200
	reloadSeen  []float64      // ms, one per reload: POST start to first reply under the new version
}

// setupServe builds the server over the policy snap, and its listener.
func setupServe(c config, k serveKind, snap *nn.Snapshot) (instance, error) {
	srv, err := serve.New(serve.Config{
		Snapshot: snap, Backend: k.backend, Workers: 2, MaxBatch: 32,
		// Closed-loop clients: holding a batch open would only add latency.
		BatchWindow: -1,
	})
	if err != nil {
		return nil, err
	}
	s := &serveInstance{c: c, kind: k, srv: srv, lastVersion: make([]uint64, c.clients)}
	if k.http {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.stop, s.served = cancel, make(chan error, 1)
		go func() { s.served <- srv.Serve(ctx, ln) }()
		s.url = "http://" + ln.Addr().String()
		s.client = &http.Client{Transport: &http.Transport{
			// One keep-alive connection per client plus the reloader's; the
			// default of 2 would redial on almost every request.
			MaxIdleConnsPerHost: c.clients + 1,
		}}
	} else {
		srv.Start()
	}
	return s, nil
}

// prepare generates the frame pool from the seed, marshals the request
// bodies, and computes every expected answer on a private network that
// shares nothing with the server: nn.Network.Forward for the float backend,
// qnn.Backend.Infer for the quantized one.
func (s *serveInstance) prepare() error {
	spec := nn.NavNetSpec()
	initial, _ := s.srv.PolicySnapshot()
	rng := rand.New(rand.NewSource(s.c.seed + 11))
	s.perClient = max(2, s.c.count(obsPerClient))
	n := s.c.clients * s.perClient
	s.obs = make([][]float32, n)
	s.bodies = make([][]byte, n)
	for i := range s.obs {
		// Dense frames: every pixel non-zero with full float32 digits, so a
		// seed changes the values and not the bytes the decoder must parse.
		o := make([]float32, spec.InputC*spec.InputH*spec.InputW)
		for j := range o {
			o[j] = rng.Float32()
		}
		s.obs[i] = o
		body, err := json.Marshal(map[string][]float32{"obs": o})
		if err != nil {
			return err
		}
		s.bodies[i] = body
	}

	policies := []*nn.Snapshot{initial}
	if s.kind.reload {
		for i := 1; i < reloadSnapshots; i++ {
			fresh := spec.Build()
			fresh.Init(rand.New(rand.NewSource(s.c.seed + 100*int64(i))))
			policies = append(policies, nn.TakeSnapshot(fresh, spec.Name))
		}
		s.firstSeen = make([]atomic.Int64, maxVersions)
	}
	for _, p := range policies {
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			return err
		}
		s.snaps = append(s.snaps, buf.Bytes())
		ref, err := referenceFor(s.kind.backend, p)
		if err != nil {
			return err
		}
		want := make([][]float32, n)
		for i, o := range s.obs {
			want[i] = ref(o)
		}
		s.want = append(s.want, want)
	}
	return nil
}

// referenceFor returns the private oracle for one policy: a function from a
// frame to the Q-values the server must return bit for bit.
func referenceFor(backend string, p *nn.Snapshot) (func(obs []float32) []float32, error) {
	spec := nn.NavNetSpec()
	net := spec.Build()
	if err := p.Restore(net); err != nil {
		return nil, err
	}
	frame := func(obs []float32) *tensor.Tensor {
		return tensor.FromSlice(append([]float32(nil), obs...), spec.InputC, spec.InputH, spec.InputW)
	}
	switch backend {
	case "float":
		return func(obs []float32) []float32 {
			return append([]float32(nil), net.Forward(frame(obs)).Data()...)
		}, nil
	case "quant":
		qb, err := qnn.NewBackend(net)
		if err != nil {
			return nil, err
		}
		return func(obs []float32) []float32 {
			return append([]float32(nil), qb.Infer(frame(obs))...)
		}, nil
	}
	return nil, fmt.Errorf("no reference for backend %q", backend)
}

// act sends frame i the way this workload's clients do and returns the reply.
func (s *serveInstance) act(i int) (serve.Reply, error) {
	if !s.kind.http {
		return s.srv.Infer(context.Background(), s.obs[i])
	}
	return postAct(s.client, s.url, s.bodies[i])
}

// postAct is one POST /v1/act round trip; the body is drained so the
// keep-alive connection goes back to the pool.
func postAct(client *http.Client, url string, body []byte) (serve.Reply, error) {
	var rep serve.Reply
	req, err := http.NewRequest(http.MethodPost, url+"/v1/act", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return rep, fmt.Errorf("POST /v1/act: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&rep)
	io.Copy(io.Discard, resp.Body)
	return rep, err
}

// check verifies one reply to frame i: Q bit-equal to the private reference
// under the reply's own policy version, action the argmax of Q, version no
// older than last.
func (s *serveInstance) check(rep serve.Reply, i int, last uint64) error {
	if rep.PolicyVersion < 1 || rep.PolicyVersion < last {
		return fmt.Errorf("policy version went %d -> %d", last, rep.PolicyVersion)
	}
	want := s.want[int((rep.PolicyVersion-1)%uint64(len(s.want)))][i]
	if len(rep.Q) != len(want) {
		return fmt.Errorf("reply has %d Q-values, want %d", len(rep.Q), len(want))
	}
	best := 0
	for a, q := range rep.Q {
		if math.Float32bits(q) != math.Float32bits(want[a]) {
			return fmt.Errorf("frame %d under version %d: Q[%d] = %v, reference %v", i, rep.PolicyVersion, a, q, want[a])
		}
		if q > rep.Q[best] {
			best = a
		}
	}
	if rep.Action != best {
		return fmt.Errorf("action %d is not argmax(q) = %d", rep.Action, best)
	}
	return nil
}

// segment drives segOps requests from c.clients closed-loop goroutines: each
// sends its next frame only after the previous reply has been verified.
func (s *serveInstance) segment() (segment, error) {
	return s.load(s.c.count(s.kind.segOps), s.kind.reload)
}

func (s *serveInstance) load(ops int, reload bool) (segment, error) {
	var (
		next     atomic.Int64
		failed   atomic.Int64
		firstErr atomic.Pointer[error]
		wg       sync.WaitGroup
		lats     = make([][]time.Duration, s.c.clients)
	)
	stopReload := func() error { return nil }
	start := time.Now()
	if reload {
		stopReload = s.startReloader()
	}
	for k := 0; k < s.c.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, ops/s.c.clients+1)
			last := s.lastVersion[k]
			for j := 0; next.Add(1) <= int64(ops); j++ {
				i := k*s.perClient + j%s.perClient
				t0 := time.Now()
				rep, err := s.act(i)
				if err == nil {
					err = s.check(rep, i, last)
				}
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, &err)
					continue
				}
				done := time.Now()
				mine = append(mine, done.Sub(t0))
				last = rep.PolicyVersion
				s.sawVersion(last, done)
			}
			s.lastVersion[k], lats[k] = last, mine
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	if err := stopReload(); err != nil {
		return segment{}, err
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	seg := segment{ops: ops, failed: int(failed.Load()), wall: wall}
	if len(all) > 0 {
		ms := sortedMillis(all)
		seg.p50ms, seg.p99ms = quantile(ms, 0.5), quantile(ms, 0.99)
	}
	if e := firstErr.Load(); e != nil {
		return seg, fmt.Errorf("%s: %d of %d requests failed, first: %w", s.kind.backend, seg.failed, ops, *e)
	}
	return seg, nil
}

// startReloader posts the next policy every reloadEvery until the returned
// stop function is called. Only this goroutine reloads, so the version each
// POST must return is known in advance and a wrong one is a failure.
func (s *serveInstance) startReloader() (stop func() error) {
	type posted struct {
		version uint64
		at      time.Time
	}
	var sent []posted
	quit, done := make(chan struct{}), make(chan error, 1)
	go func() {
		tick := time.NewTicker(reloadEvery)
		defer tick.Stop()
		for first := true; ; first = false {
			if !first { // the first reload goes out with the first requests
				select {
				case <-quit:
					done <- nil
					return
				case <-tick.C:
				}
			}
			s.reloads++
			want := s.reloads + 1
			t0 := time.Now()
			got, err := s.postPolicy(s.snaps[int(s.reloads%uint64(len(s.snaps)))])
			if err == nil && got != want {
				err = fmt.Errorf("reload %d published version %d, want %d", s.reloads, got, want)
			}
			if err != nil {
				<-quit
				done <- err
				return
			}
			s.reloadPost = append(s.reloadPost, float64(time.Since(t0))/1e6)
			sent = append(sent, posted{want, t0})
		}
	}()
	return func() error {
		close(quit)
		err := <-done
		// A reload is visible once a client holds a verified reply computed
		// under it. A version superseded before any reply carried it has no
		// sample; if the clients finished before any reload landed, one more
		// request shows the last one.
		if n := len(sent); err == nil && n > 0 && s.seenAt(sent[n-1].version) == 0 {
			var rep serve.Reply
			if rep, err = s.act(0); err == nil {
				err = s.check(rep, 0, sent[n-1].version)
			}
			if err == nil {
				s.sawVersion(rep.PolicyVersion, time.Now())
			}
		}
		for _, p := range sent {
			if seen := s.seenAt(p.version); seen != 0 {
				s.reloadSeen = append(s.reloadSeen, float64(seen-p.at.UnixNano())/1e6)
			}
		}
		return err
	}
}

// sawVersion notes when a verified reply first carried policy version v;
// seenAt reads it back in unix ns, 0 for never (or for a version beyond the
// table, or a workload that does not reload).
func (s *serveInstance) sawVersion(v uint64, at time.Time) {
	if v < uint64(len(s.firstSeen)) && s.firstSeen[v].Load() == 0 {
		s.firstSeen[v].CompareAndSwap(0, at.UnixNano())
	}
}

func (s *serveInstance) seenAt(v uint64) int64 {
	if v < uint64(len(s.firstSeen)) {
		return s.firstSeen[v].Load()
	}
	return 0
}

func (s *serveInstance) postPolicy(snap []byte) (uint64, error) {
	resp, err := s.client.Post(s.url+"/v1/policy", "application/octet-stream", bytes.NewReader(snap))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rv struct {
		PolicyVersion uint64 `json:"policy_version"`
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("POST /v1/policy: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&rv)
	io.Copy(io.Discard, resp.Body)
	return rv.PolicyVersion, err
}

// finish reads the server's own counters: a rejection or a failed adoption
// that no client noticed is still a failed operation.
func (s *serveInstance) finish() (int, error) {
	st := s.srv.Stats()
	bad := int(st.Rejected + st.AdoptFailures)
	if bad > 0 {
		return bad, fmt.Errorf("server counted %d rejected, %d adopt failures", st.Rejected, st.AdoptFailures)
	}
	if s.kind.reload && st.Reloads != int64(s.reloads) {
		return 1, fmt.Errorf("server counted %d reloads, reloader posted %d", st.Reloads, s.reloads)
	}
	return 0, nil
}

func (s *serveInstance) close() error {
	s.closeOnce.Do(func() {
		if !s.kind.http {
			s.srv.Close()
			return
		}
		s.client.CloseIdleConnections()
		s.stop()
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.closeErr = err
		}
	})
	return s.closeErr
}
