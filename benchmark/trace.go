package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/serve"
	"dronerl/internal/tensor"
	"dronerl/internal/transfer"
)

// span is one timed call into a layer. Spans are recorded from the
// benchmark's own files, around the exported function; hooks inside the
// program are a later change.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one, -1 for a root
	ID     int64  `json:"id"`     // the request or env step every span of one operation shares
}

// recorder keeps spans in memory and writes them out when the run ends. A
// nil recorder records nothing, which is how the untraced twin of a replay
// runs the same code.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int, id int64) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: parent, ID: id})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r != nil {
		r.spans[i].End = int64(time.Since(r.t0))
	}
}

// add files a span whose ends were clocked elsewhere.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Parent: parent})
	return len(r.spans) - 1
}

// seconds lists the durations of every span called name.
func (r *recorder) seconds(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfPct is the share of the spans called name that none of their children
// covers: the part of the parent the trace does not attribute to a layer.
func (r *recorder) selfPct(name string) float64 {
	var total, children int64
	for _, s := range r.spans {
		if s.Name == name {
			total += s.End - s.Start
		} else if s.Parent >= 0 && r.spans[s.Parent].Name == name {
			children += s.End - s.Start
		}
	}
	return 100 * float64(total-children) / float64(total)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"spans": r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracer assembles one traced run's result.
type tracer struct {
	c    config
	rec  *recorder
	snap *nn.Snapshot // one meta-trained policy shared by every reference section
	res  result
}

func (t *tracer) put(name string, s stat) { t.res.Metrics[name] = s }

func (t *tracer) count(seg segment) {
	t.res.Attempted += seg.ops
	t.res.Failed += seg.failed
}

// check files err as a verification failure and reports whether to go on.
// A systematic fault fails every replayed request; the first few say it all.
func (t *tracer) check(what string, err error) bool {
	if err != nil && len(t.res.Errors) < 20 {
		t.res.Errors = append(t.res.Errors, what+": "+err.Error())
	}
	return err == nil
}

// runTraced produces every per-layer metric. The workload named on the
// command line runs once for the process rows and chooses the backend the
// serving tiers replay and the topology the serial loop flies; the other
// families run at their reference configuration so every row is always
// present. End-to-end numbers never come from here.
func runTraced(w workload, c config, tracePath string) result {
	t := &tracer{c: c, rec: newRecorder(), res: result{Workload: w.name, Traced: true, Metrics: map[string]stat{}}}

	// The workload itself: one warm-up and one measured segment.
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	inst, err := w.setup(c)
	if !t.check("set-up", err) {
		return t.res
	}
	defer inst.close()
	if !t.check("inputs", inst.prepare()) {
		return t.res
	}
	_, err = inst.segment()
	if !t.check("warm-up", err) {
		return t.res
	}
	runtime.ReadMemStats(&mid)
	seg, err := inst.segment()
	t.check("segment", err)
	t.count(seg)
	runtime.ReadMemStats(&after)
	t.put("go.allocs_per_op", exact(float64(after.Mallocs-mid.Mallocs)/float64(seg.ops)))
	t.put("go.heap_inuse_mb", exact(float64(after.HeapInuse)/(1<<20)))
	// Pauses since this workload began setting up: a single segment of the
	// lightest workload can pass without one collection.
	t.put("go.gc_pause_ms", exact(float64(after.PauseTotalNs-before.PauseTotalNs)/1e6))

	sv, _ := inst.(*serveInstance)
	on, _ := inst.(*onlineInstance)
	t.snap = metaSnapshot(c)

	t.serving(sv)
	t.reloading(sv)
	t.flying(on)
	t.distributing(on, seg)

	layers, err := probeLayers(c, t.snap)
	t.check("layer probes", err)
	for name, s := range layers {
		t.put(name, s)
	}
	t.check("trace.json", t.rec.write(tracePath))
	return t.res
}

// serving replays requests one at a time through four tiers of the serving
// path — T0 loopback POST, T1 the handler on an in-memory writer, T2
// Server.Infer, T3 the backend's Infer — so that each difference prices one
// layer, and reads the batching counters of a loaded segment.
func (t *tracer) serving(own *serveInstance) {
	backend := "float"
	if own != nil {
		backend = own.kind.backend
	}
	inst, err := setupServe(t.c, serveKind{backend: backend, http: true}, t.snap)
	if !t.check("serving tiers set-up", err) {
		return
	}
	s := inst.(*serveInstance)
	defer s.close()
	if !t.check("serving tiers inputs", s.prepare()) {
		return
	}

	// Batching counters and the tail come from load, which the sequential
	// tiers cannot create: a long segment on the workload's own server when
	// it serves, on this one otherwise.
	loaded := own
	if own == nil {
		loaded = s
	}
	seg, err := loaded.load(t.c.count(3000), loaded.kind.reload)
	if !t.check("loaded serving segment", err) {
		return
	}
	t.count(seg)
	st := loaded.srv.Stats()
	t.put("serve.mean_batch", exact(st.MeanBatch))
	t.put("serve.batched_share", exact(float64(st.BatchedBatches)/float64(max(st.Batches, 1))))
	t.put("serve.rejected", exact(float64(st.Rejected)))
	t.put("serve.adopt_failures", exact(float64(st.AdoptFailures)))
	t.put("serve.act_p99_ms", single(seg.p99ms, seg.ops-seg.failed))
	t.put("mem.ledger_mj_per_act", exact(st.TotalEnergyMJ/float64(max(st.Served, 1))))

	spec := nn.NavNetSpec()
	snap, _ := s.srv.PolicySnapshot()
	private := spec.Build()
	if !t.check("tier T3 network", snap.Restore(private)) {
		return
	}
	kernel, err := nn.NewBackendFor(backend, private, spec, nn.E2E)
	if !t.check("tier T3 backend", err) {
		return
	}
	frame := tensor.New(spec.InputC, spec.InputH, spec.InputW)
	handler := s.srv.Handler()
	tiers := []struct {
		name string
		call func(i int) (serve.Reply, error)
	}{
		{"serve.T0.http", func(i int) (serve.Reply, error) { return postAct(s.client, s.url, s.bodies[i]) }},
		{"serve.T1.handler", func(i int) (serve.Reply, error) { return handlerAct(handler, s.bodies[i]) }},
		{"serve.T2.infer", func(i int) (serve.Reply, error) { return s.srv.Infer(context.Background(), s.obs[i]) }},
		{"serve.T3.backend", func(i int) (serve.Reply, error) {
			copy(frame.Data(), s.obs[i])
			q := append([]float32(nil), kernel.Infer(frame)...)
			return serve.Reply{Action: tensor.FromSlice(q, len(q)).ArgMax(), Q: q, PolicyVersion: 1}, nil
		}},
	}
	// The tiers take turns on every frame, so a slow second on the host lands
	// on all of them and cancels in their differences. T0 also runs bare,
	// before the tiers on even frames and after them on odd ones: whichever
	// call follows T3 finds the connection and the caches colder.
	n := t.c.count(1000)
	var bare []float64
	bareT0 := func(k, i int) {
		t0 := time.Now()
		_, err := tiers[0].call(i)
		if d := time.Since(t0).Seconds(); k >= 0 {
			bare = append(bare, d)
		}
		t.check("bare T0", err)
	}
	for k := -min(n, 50); k < n; k++ { // negative k: warm-up, not recorded
		i := (k + len(s.obs)) % len(s.obs)
		rec := t.rec
		if k < 0 {
			rec = nil
		}
		if k%2 == 0 {
			bareT0(k, i)
		}
		for _, tier := range tiers {
			id := rec.begin(tier.name, -1, int64(k))
			rep, err := tier.call(i)
			rec.end(id)
			if k < 0 {
				continue
			}
			t.res.Attempted++
			if err == nil {
				err = s.check(rep, i, 1)
			}
			if !t.check(tier.name, err) {
				t.res.Failed++
			}
		}
		if k%2 != 0 {
			bareT0(k, i)
		}
	}
	var us [4]float64
	for i, tier := range tiers {
		us[i] = fastDecile(t.rec.seconds(tier.name), false).Value * 1e6
	}
	// Each tier contains the next; a layer is the difference of two tiers.
	// A negative difference is noise, and counts as time the tiers failed
	// to attribute.
	var lost float64
	layer := func(name string, outer, inner float64) {
		d := outer - inner
		if d < 0 {
			lost, d = lost-d, 0
		}
		t.put(name, single(d, n))
	}
	layer("serve.net_us", us[0], us[1])
	layer("serve.json_us", us[1], us[2])
	layer("serve.queue_us", us[2], us[3])
	layer("serve.kernel_us", us[3], 0)
	if own != nil {
		t.put("trace.unattributed_pct", exact(100*lost/us[0]))
		base := fastDecile(bare, false).Value * 1e6
		t.put("trace.overhead_pct", exact(100*(us[0]-base)/base))
	}
}

// memWriter is the in-memory http.ResponseWriter of tier T1.
type memWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) WriteHeader(status int)      { w.status = status }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }

// handlerAct is POST /v1/act without the network: the handler decodes the
// same body and encodes the same reply into memory.
func handlerAct(h http.Handler, body []byte) (serve.Reply, error) {
	var rep serve.Reply
	req, err := http.NewRequest(http.MethodPost, "/v1/act", bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	w := &memWriter{header: http.Header{}, status: http.StatusOK}
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		return rep, fmt.Errorf("handler /v1/act: status %d", w.status)
	}
	return rep, json.NewDecoder(&w.body).Decode(&rep)
}

// reloading runs one segment without and one with the reloader on the same
// server, so the price of hot reloads is a same-run ratio.
func (t *tracer) reloading(own *serveInstance) {
	s := own
	if own == nil || !own.kind.reload {
		inst, err := setupServe(t.c, serveKinds["serve-http-reload"], t.snap)
		if !t.check("reload set-up", err) {
			return
		}
		s = inst.(*serveInstance)
		defer s.close()
		if !t.check("reload inputs", s.prepare()) {
			return
		}
	}
	ops := t.c.count(s.kind.segOps)
	quiet, err := s.load(ops, false)
	t.check("segment without reloads", err)
	t.count(quiet)
	busy, err := s.load(ops, true)
	t.check("segment with reloads", err)
	t.count(busy)
	qps := func(g segment) float64 { return float64(g.ops-g.failed) / g.wall.Seconds() }
	t.put("serve.reload_qps_ratio", exact(qps(busy)/qps(quiet)))
	t.put("serve.reload_post_ms", summarize(s.reloadPost))
	t.put("serve.reload_visible_ms", summarize(s.reloadSeen))
}

// flying is a serial act -> store -> train loop written here from the public
// pieces the pipelines are built of, with a span around every call, flown
// once bare and once traced on identical seeds.
func (t *tracer) flying(own *onlineInstance) {
	kind := onlineKinds["online-l3"]
	if own != nil && !own.kind.dist {
		kind = own.kind
	}
	kind.actors = 1
	o := newOnline(t.c, kind, t.snap)
	bare, err := o.fly(nil)
	if !t.check("serial loop", err) {
		return
	}
	traced, err := o.fly(t.rec)
	if !t.check("traced serial loop", err) {
		return
	}
	t.res.Attempted += 2 * o.steps()
	if own != nil {
		t.put("trace.unattributed_pct", exact(t.rec.selfPct("step")))
		t.put("trace.overhead_pct", exact(100*(traced.Seconds()-bare.Seconds())/bare.Seconds()))
	}
}

// fly is the serial loop. The learner publishes every syncEvery updates and a
// replica adopts at episode boundaries, as the pipelines do.
func (o *onlineInstance) fly(rec *recorder) (time.Duration, error) {
	spec, steps := nn.NavNetSpec(), o.steps()
	agent, err := transfer.Deploy(o.snap, spec, o.kind.cfg, o.options(1, steps))
	if err != nil {
		return 0, err
	}
	replica := spec.Build()
	replica.SetConfig(o.kind.cfg)
	if err := replica.CopyWeightsFrom(agent.Net); err != nil {
		return 0, err
	}
	board := nn.NewPolicyBoard()
	seen := board.Publish(agent.Net, spec.Name)
	w := o.world(0)
	obs := env.DepthImage(w.Depths(), w.Camera.MaxRange)
	trained := 0
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		id := int64(i)
		step := rec.begin("step", -1, id)

		sp := rec.begin("rl.select_action", step, id)
		action := agent.SelectAction(obs)
		rec.end(sp)

		sp = rec.begin("env.step", step, id)
		res := w.Step(env.Action(action))
		rec.end(sp)

		sp = rec.begin("env.depth_image", step, id)
		next := env.DepthImage(res.Depths, w.Camera.MaxRange)
		rec.end(sp)

		sp = rec.begin("rl.observe", step, id)
		agent.Observe(rl.Transition{State: obs, Action: action, Reward: res.Reward, Next: next, Done: res.Crashed})
		rec.end(sp)

		if i%trainEvery == 0 {
			sp = rec.begin("rl.train_step", step, id)
			loss := agent.TrainStep()
			rec.end(sp)
			if loss >= 0 {
				if trained++; trained%syncEvery == 0 {
					sp = rec.begin("nn.board_publish", step, id)
					board.Publish(agent.Net, spec.Name)
					rec.end(sp)
				}
			}
		}
		if res.Crashed {
			sp = rec.begin("nn.board_adopt", step, id)
			v, _, err := board.Adopt(replica, seen)
			rec.end(sp)
			if err != nil {
				return 0, err
			}
			seen = v
		}
		obs = next
		rec.end(step)
	}
	wall := time.Since(t0)
	if err := checkTrainSteps(agent.TrainSteps(), steps, 1); err != nil {
		return wall, err
	}
	return wall, finite(agent.Net)
}

// distributing runs the TCP pipeline and the in-process one on the same
// steps, so the transport's price is a same-run ratio, and reads both sets
// of counters.
func (t *tracer) distributing(own *onlineInstance, ownSeg segment) {
	one := func(name string) (*onlineInstance, segment) {
		k := onlineKinds[name].on(t.c)
		if own != nil && own.kind == k {
			return own, ownSeg
		}
		o := newOnline(t.c, k, t.snap)
		seg, err := o.segment()
		t.check(name+" reference segment", err)
		t.count(seg)
		return o, seg
	}
	d, dseg := one("dist-l3")
	l, lseg := one("online-l3")

	ds := d.lastDist
	run := t.rec.add("dist.run", -1, ds.started, ds.started.Add(ds.actorPhase+ds.learnerDrain))
	t.rec.add("dist.actor_phase", run, ds.started, ds.started.Add(ds.actorPhase))
	t.rec.add("dist.learner_drain", run, ds.started.Add(ds.actorPhase), ds.started.Add(ds.actorPhase+ds.learnerDrain))
	t.put("dist.actor_phase_s", exact(ds.actorPhase.Seconds()))
	t.put("dist.learner_drain_s", exact(ds.learnerDrain.Seconds()))
	t.put("dist.sent", exact(float64(ds.sent)))
	t.put("dist.dropped", exact(float64(ds.dropped)))
	t.put("dist.undelivered", exact(float64(ds.undelivered)))
	t.put("dist.connects", exact(float64(ds.connects)))
	t.put("dist.publishes", exact(float64(ds.publishes)))
	t.put("dist.adoptions", exact(float64(ds.adoption)))
	perSec := func(g segment) float64 { return float64(g.ops) / math.Max(g.wall.Seconds(), 1e-9) }
	t.put("dist.vs_inproc_ratio", exact(perSec(dseg)/perSec(lseg)))

	t.put("rl.train_steps", exact(float64(l.lastStats.TrainSteps)))
	t.put("rl.publishes", exact(float64(l.lastStats.Publishes)))
	t.put("rl.adoptions", exact(float64(l.lastStats.Adoptions)))
}
