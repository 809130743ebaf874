package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dronerl/internal/dist/chaos"
	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

// testFleet bundles the common scaffolding of the integration tests: a
// learner on a loopback listener and helpers to run actors against it.
type testFleet struct {
	spec  nn.ArchSpec
	cfg   nn.Config
	agent *rl.Agent
	ln    net.Listener
	addr  string
}

func newFleet(t *testing.T, seed int64, cfg nn.Config) *testFleet {
	t.Helper()
	spec := nn.NavNetSpec()
	opts := fastOpts(seed)
	opts.SyncEvery = 4
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &testFleet{
		spec:  spec,
		cfg:   cfg,
		agent: rl.NewAgent(spec, cfg, opts),
		ln:    ln,
		addr:  ln.Addr().String(),
	}
}

// trainOn rebuilds the fleet's agent to train on the named backend.
func (f *testFleet) trainOn(t *testing.T, backend string) {
	t.Helper()
	opts := f.agent.Options()
	opts.TrainBackend = backend
	f.agent = rl.NewAgent(f.spec, f.cfg, opts)
	if err := f.agent.ActivateTrainBackend(); err != nil {
		t.Fatal(err)
	}
}

func (f *testFleet) actorConfig(seed int64, steps int) ActorConfig {
	return ActorConfig{
		Addr:           f.addr,
		Spec:           f.spec,
		World:          env.IndoorApartment(seed),
		Steps:          steps,
		Seed:           seed,
		BackoffMin:     10 * time.Millisecond,
		BackoffMax:     200 * time.Millisecond,
		HeartbeatEvery: 25 * time.Millisecond,
		DrainTimeout:   3 * time.Second,
	}
}

// TestDistributedRunTrains is the happy path: two remote actors feed a
// learner over loopback TCP; every transition arrives, the learner trains on
// the in-process cadence and publishes, reporting every publish, and the
// actors adopt.
func TestDistributedRunTrains(t *testing.T) {
	const actors, steps, trainEvery, syncEvery = 2, 240, 4, 4
	f := newFleet(t, 61, nn.L3)
	var reported atomic.Int64
	learner, err := NewLearner(LearnerConfig{
		Agent: f.agent, Spec: f.spec, Cfg: f.cfg, Listener: f.ln,
		ActorSlots: actors, TotalSteps: steps, TrainEvery: trainEvery, SyncEvery: syncEvery,
		HeartbeatEvery: 25 * time.Millisecond,
		OnPublish:      func(uint64) { reported.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	learnerCh := make(chan LearnerStats, 1)
	learnerErr := make(chan error, 1)
	go func() {
		st, err := learner.Run(ctx)
		learnerCh <- st
		learnerErr <- err
	}()

	type actorOut struct {
		st  ActorStats
		err error
	}
	outs := make(chan actorOut, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			st, err := RunActor(ctx, f.actorConfig(62+int64(i), 120))
			outs <- actorOut{st, err}
		}(i)
	}

	ids := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		out := <-outs
		if out.err != nil {
			t.Errorf("actor: %v", out.err)
		}
		if out.st.Steps != 120 || out.st.Sent != 120 || out.st.Undelivered != 0 || out.st.Dropped != 0 {
			t.Errorf("actor stats %+v, want 120 steps all delivered", out.st)
		}
		if out.st.Connects != 1 {
			t.Errorf("actor connected %d times on a clean link", out.st.Connects)
		}
		ids[out.st.ActorID] = true
	}
	if len(ids) != 2 {
		t.Errorf("actors shared an ID: %v", ids)
	}

	st := <-learnerCh
	if err := <-learnerErr; err != nil {
		t.Fatalf("learner: %v", err)
	}
	if st.EnvSteps != 240 {
		t.Errorf("learner received %d env steps, want 240", st.EnvSteps)
	}
	// One update per trainEvery env steps, less the start-up attempts on a
	// replay below one batch; each actor may be a step ahead of or behind
	// its pushes when the learner looks.
	due := (steps + trainEvery - 1) / trainEvery
	idle := f.agent.BatchSize() / trainEvery
	if st.TrainSteps < due-idle-actors || st.TrainSteps > due {
		t.Errorf("learner trained %d steps, cadence wants %d..%d", st.TrainSteps, due-idle-actors, due)
	}
	if st.Publishes != st.TrainSteps/syncEvery || st.Publishes < 1 {
		t.Errorf("learner published %d policies for %d updates, want one per %d", st.Publishes, st.TrainSteps, syncEvery)
	}
	if got := reported.Load(); got != int64(st.Publishes) {
		t.Errorf("OnPublish fired %d times for %d publishes", got, st.Publishes)
	}
	if st.Connects != 2 || st.Resumes != 0 {
		t.Errorf("learner sessions %+v, want 2 fresh connects", st)
	}
}

// TestDistActorKillRestart kills an actor mid-run (twice) and restarts it
// with its assigned ID: each restart must reclaim the same shard slot and
// the learner must finish cleanly on the experience that survived. The kills
// are clocked by the bytes the actor has written (350-580 KB a round, of the
// ~2.1 MB the 2000-step mission sends as ~1 KB boundary-feature rows), so
// they land a few hundred steps into a round however fast the actor flies —
// a wall-clock kill was outrun once the mission shrank to a fifth of a
// second.
func TestDistActorKillRestart(t *testing.T) {
	f := newFleet(t, 71, nn.L3)
	learner, err := NewLearner(LearnerConfig{
		Agent: f.agent, Spec: f.spec, Cfg: f.cfg, Listener: f.ln,
		ActorSlots: 1, TotalSteps: 2000, TrainEvery: 4, SyncEvery: 4,
		HeartbeatEvery: 25 * time.Millisecond, HeartbeatTimeout: 500 * time.Millisecond,
		IdleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	learnerCh := make(chan LearnerStats, 1)
	learnerErr := make(chan error, 1)
	go func() {
		st, err := learner.Run(ctx)
		learnerCh <- st
		learnerErr <- err
	}()

	var id uint64
	remaining := 2000
	restarts := 0
	task := func(runCtx context.Context, dial chaos.Dial) error {
		if remaining <= 0 {
			return nil
		}
		cfg := f.actorConfig(72+int64(restarts), remaining)
		cfg.ActorID = id
		cfg.Dial = dial
		restarts++
		st, err := RunActor(runCtx, cfg)
		remaining -= st.Steps
		if st.ActorID != 0 {
			id = st.ActorID
		}
		if remaining <= 0 {
			return nil
		}
		if err == nil {
			err = fmt.Errorf("actor stopped with %d steps left", remaining)
		}
		return err
	}
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", f.addr)
	}
	const minBytes, maxBytes = 350 << 10, 580 << 10
	kills, err := chaos.Supervise(ctx, 2, minBytes, maxBytes, 73, dial, task)
	if err != nil {
		t.Fatalf("supervised actor: %v", err)
	}
	if len(kills) != 2 || restarts != 3 {
		t.Errorf("supervisor killed %d rounds and ran the actor %d times, want 2 kills and 3 runs", len(kills), restarts)
	}
	for i, k := range kills {
		// The write that crosses the budget is one transitions frame at most
		// (FlushEvery steps, ~8.2 KB): the kill lands within one of the budget.
		if k.Budget < minBytes || k.Budget > maxBytes || k.Written < k.Budget || k.Written-k.Budget >= 15<<10 {
			t.Errorf("kill %d fired at %d bytes written for a budget of %d in [%d, %d]", i, k.Written, k.Budget, minBytes, maxBytes)
		}
	}

	st := <-learnerCh
	if err := <-learnerErr; err != nil {
		t.Fatalf("learner: %v", err)
	}
	if st.TrainSteps < 1 {
		t.Errorf("learner trained %d steps after actor restarts", st.TrainSteps)
	}
	if st.EnvSteps < 100 {
		t.Errorf("learner received only %d env steps across restarts", st.EnvSteps)
	}
	if remaining > 0 {
		t.Errorf("%d steps were never flown", remaining)
	}
}

// TestDistLearnerCrashResume crashes the learner mid-run and restarts it
// from its checkpoint on the same address: the actors reconnect on their
// own, reclaim their slots, and the resumed learner continues training from
// the checkpointed clock and replay cursors. The crash is clocked by the
// learner's progress, not by wall time: its first publish after a checkpoint
// that has seen both actors and real training cancels it.
func TestDistLearnerCrashResume(t *testing.T) {
	// Both actors must still be flying when the crash lands. It landed at
	// fleet env step 16–752 over 20 runs each at GOMAXPROCS 1 and 2, but an
	// actor that outpaces the learner could finish first. So each actor's
	// first connection holds its writes past about half its steps (one
	// frame per FlushEvery steps, written from the stepping loop) until the
	// crashed learner's Run has returned: the crash lands by construction.
	const steps, flushEvery = 1500, 8
	f := newFleet(t, 81, nn.L3)
	ckpt := filepath.Join(t.TempDir(), "learner.ckpt")
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	l1ctx, l1cancel := context.WithCancel(ctx)
	defer l1cancel()
	learner1, err := NewLearner(LearnerConfig{
		Agent: f.agent, Spec: f.spec, Cfg: f.cfg, Listener: f.ln,
		ActorSlots: 2, TotalSteps: 2 * steps, TrainEvery: 4, SyncEvery: 2,
		HeartbeatEvery: 25 * time.Millisecond,
		CheckpointPath: ckpt, CheckpointEvery: 4,
		// Where a publish and a checkpoint fall on one train step the
		// publish goes first, so the checkpoint read here is an earlier one.
		OnPublish: func(uint64) {
			if c, err := LoadCheckpoint(ckpt); err == nil && c.TrainSteps >= 4 && len(c.Slots) == 2 {
				l1cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	l1done, crashed := make(chan error, 1), make(chan struct{})
	go func() {
		_, err := learner1.Run(l1ctx)
		close(crashed)
		l1done <- err
	}()

	type actorOut struct {
		st  ActorStats
		err error
	}
	outs := make(chan actorOut, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			cfg := f.actorConfig(82+int64(i), steps)
			cfg.FlushEvery = flushEvery
			dialed := false // the first dial returns before any redial starts
			cfg.Dial = func(dctx context.Context) (net.Conn, error) {
				var d net.Dialer
				c, err := d.DialContext(dctx, "tcp", f.addr)
				if err != nil || dialed {
					return c, err
				}
				dialed = true
				return &heldConn{Conn: c, writes: steps / 2 / flushEvery, release: crashed, ctx: ctx}, nil
			}
			cfg.HeartbeatTimeout = 500 * time.Millisecond
			cfg.DrainTimeout = 10 * time.Second
			st, err := RunActor(ctx, cfg)
			outs <- actorOut{st, err}
		}(i)
	}

	if err := <-l1done; !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed learner reported %v, want context.Canceled", err)
	}

	// Resume: fresh process state, same address, checkpointed everything.
	cp, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp.EnvSteps >= 2*steps || cp.TrainSteps < 4 || len(cp.Slots) != 2 {
		t.Fatalf("the crash did not land mid-mission: checkpoint at env %d train %d with %d actors, of %d env steps",
			cp.EnvSteps, cp.TrainSteps, len(cp.Slots), 2*steps)
	}
	t.Logf("crash checkpoint at env %d of %d", cp.EnvSteps, 2*steps)
	ln2, err := net.Listen("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(999) // deliberately different seed: weights must come from the checkpoint
	opts.SyncEvery = 4
	agent2 := rl.NewAgent(f.spec, f.cfg, opts)
	learner2, err := NewLearner(LearnerConfig{
		Agent: agent2, Spec: f.spec, Cfg: f.cfg, Listener: ln2,
		ActorSlots: 2, TotalSteps: 2*steps - int(cp.EnvSteps), TrainEvery: 4, SyncEvery: 4,
		HeartbeatEvery: 25 * time.Millisecond,
		CheckpointPath: ckpt, CheckpointEvery: 8,
		Resume: cp,
		// Safety valve: if a departure is lost in the crash window, a
		// silent fleet still ends the run.
		IdleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agent2.Clock().EnvSteps() != cp.EnvSteps || agent2.Clock().TrainSteps() != cp.TrainSteps {
		t.Fatalf("resume did not restore the clock: env=%d train=%d, want %d/%d",
			agent2.Clock().EnvSteps(), agent2.Clock().TrainSteps(), cp.EnvSteps, cp.TrainSteps)
	}
	restored := nn.TakeSnapshot(agent2.Net, f.spec.Name)
	for i := range cp.Net.Data {
		if !bytes.Equal(f32bytes(restored.Data[i]), f32bytes(cp.Net.Data[i])) {
			t.Fatalf("resume did not restore weights of param %d", i)
		}
	}

	st2, err := learner2.Run(ctx)
	if err != nil {
		t.Fatalf("resumed learner: %v (stats %+v)", err, st2)
	}
	for i := 0; i < 2; i++ {
		out := <-outs
		if out.err != nil {
			t.Errorf("actor: %v", out.err)
		}
		if out.st.Connects < 2 {
			t.Errorf("actor survived a learner crash with %d connects, want >= 2", out.st.Connects)
		}
	}
	if st2.Resumes < 2 {
		t.Errorf("resumed learner re-admitted %d actors by ID, want 2", st2.Resumes)
	}
	if st2.EnvSteps < 1 || st2.TrainSteps < 1 {
		t.Errorf("resumed learner received %d env steps and trained %d", st2.EnvSteps, st2.TrainSteps)
	}
	if got := agent2.Clock().TrainSteps(); got <= cp.TrainSteps {
		t.Errorf("cumulative train steps %d did not advance past checkpoint %d", got, cp.TrainSteps)
	}
}

// heldConn passes its first writes through, then holds each later Write
// until release closes (or ctx ends).
type heldConn struct {
	net.Conn
	writes  int
	release <-chan struct{}
	ctx     context.Context
}

func (c *heldConn) Write(p []byte) (int, error) {
	if c.writes--; c.writes < 0 {
		select {
		case <-c.release:
		case <-c.ctx.Done():
		}
	}
	return c.Conn.Write(p)
}

// TestDistChaosLinks runs the fleet over links that randomly die mid-frame
// and delay every operation. The run must keep making progress through the
// reconnect storm and never corrupt a transition (the CRC, the structural
// checks and the learner's validation drop the connection instead). Every
// reconnect stages a full snapshot, so the storm is also where the feature
// safety rule earns its keep: a tap on each actor's link asserts that what
// leaves between a reconnect and the adoption of its snapshot is frames
// only, and that features flow otherwise.
func TestDistChaosLinks(t *testing.T) {
	f := newFleet(t, 91, nn.L3)

	// Size the per-connection byte budgets off the handshake snapshot so a
	// connection can complete its handshake and then die a few frames in.
	snapPayload, err := encodeSnapshotFrame(nn.TakeSnapshot(f.agent.Net, f.spec.Name), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(len(snapPayload))
	faults := chaos.Config{
		Seed:         92,
		MinConnBytes: budget + 64<<10,
		MaxConnBytes: budget + 256<<10,
		MaxDelay:     500 * time.Microsecond,
	}

	learner, err := NewLearner(LearnerConfig{
		Agent: f.agent, Spec: f.spec, Cfg: f.cfg, Listener: f.ln,
		ActorSlots: 2, TotalSteps: 300, TrainEvery: 4, SyncEvery: 4,
		HeartbeatEvery: 25 * time.Millisecond, HeartbeatTimeout: 500 * time.Millisecond,
		IdleTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The learner gets its own deadline: if every actor's bye is lost to
	// the chaos, fleet departure never fires and the deadline is the
	// legitimate way out.
	lctx, lcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer lcancel()
	learnerCh := make(chan LearnerStats, 1)
	learnerErr := make(chan error, 1)
	go func() {
		st, err := learner.Run(lctx)
		learnerCh <- st
		learnerErr <- err
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	type actorOut struct {
		st  ActorStats
		err error
	}
	outs := make(chan actorOut, 2)
	var withheld, shipped atomic.Int64
	for i := 0; i < 2; i++ {
		go func(i int) {
			cfg := f.actorConfig(93+int64(i), 150)
			cfg.HeartbeatTimeout = 500 * time.Millisecond
			cfg.DrainTimeout = 2 * time.Second
			var a *actor
			dial := chaos.Dialer("tcp", f.addr, faults)
			cfg.Dial = func(ctx context.Context) (net.Conn, error) {
				conn, err := dial(ctx)
				if err != nil {
					return nil, err
				}
				return &featureTap{Conn: conn, t: t, trusted: func() bool { return a.prefixTrusted() },
					withheld: &withheld, shipped: &shipped}, nil
			}
			if err := cfg.withDefaults(); err != nil {
				outs <- actorOut{err: err}
				return
			}
			a = newActor(cfg)
			st, err := a.run(ctx)
			outs <- actorOut{st, err}
		}(i)
	}

	reconnects := 0
	for i := 0; i < 2; i++ {
		out := <-outs
		if out.err != nil {
			t.Errorf("actor under chaos: %v", out.err)
		}
		if out.st.Steps != 150 {
			t.Errorf("actor flew %d steps under chaos, want 150 (flying never stops)", out.st.Steps)
		}
		reconnects += out.st.Connects
	}
	if reconnects <= 2 {
		t.Errorf("fleet connected %d times total; chaos should force reconnects", reconnects)
	}
	if withheld.Load() == 0 || shipped.Load() == 0 {
		t.Errorf("%d transitions left without features awaiting an adoption, %d left with them; want both",
			withheld.Load(), shipped.Load())
	}

	lcancel()
	st := <-learnerCh
	if err := <-learnerErr; err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("learner under chaos: %v", err)
	}
	if st.EnvSteps < 50 {
		t.Errorf("learner received only %d env steps through the chaos", st.EnvSteps)
	}
	if st.TrainSteps < 1 {
		t.Errorf("learner never trained under chaos")
	}
	if st.Disconnects < 1 {
		t.Errorf("chaos produced no disconnects (budgets too large?)")
	}
}

// TestActorRefusesNonFiniteTail: a tail publish with a NaN in its last
// parameter is refused at the episode boundary, and the actor keeps flying
// every bit of the policy it had.
func TestActorRefusesNonFiniteTail(t *testing.T) {
	spec := nn.NavNetSpec()
	a := newActor(ActorConfig{Spec: spec, World: env.IndoorApartment(1), Steps: 1})
	a.net.SetConfig(nn.L3)
	learner := spec.Build()
	learner.Init(rand.New(rand.NewSource(2)))
	learner.SetConfig(nn.L3)
	board := nn.NewPolicyBoard()
	board.Publish(learner, spec.Name)
	tail, _ := board.Snapshot()
	last := tail.Data[len(tail.Data)-1]
	last[len(last)-1] = float32(math.NaN())

	before := nn.TakeSnapshot(a.net, spec.Name)
	a.pending.Store(&pendingPolicy{tail: tail})
	if a.adoptPending() || a.stats.Adoptions != 0 {
		t.Fatalf("a non-finite tail was adopted (%d adoptions)", a.stats.Adoptions)
	}
	for i, p := range a.net.Params() {
		if !bytes.Equal(f32bytes(p.W.Data()), f32bytes(before.Data[i])) {
			t.Fatalf("a refused tail wrote %s", p.Name)
		}
	}
}

// TestNewLearnerRefusesForeignSpecOrCfg: the welcome tells every actor what
// to freeze, so a LearnerConfig whose Spec or Cfg is not its agent's — Cfg
// left at its zero value, E2E, included — is refused with both named.
func TestNewLearnerRefusesForeignSpecOrCfg(t *testing.T) {
	f := newFleet(t, 111, nn.L3)
	defer f.ln.Close()
	other := f.spec
	other.Name = "OtherNet"
	for _, tc := range []struct {
		name string
		spec nn.ArchSpec
		cfg  nn.Config
		want []string
	}{
		{"Cfg unset", f.spec, 0, []string{"E2E", "L3"}},
		{"Cfg mismatched", f.spec, nn.L2, []string{"L2", "L3"}},
		{"Spec mismatched", other, nn.L3, []string{"OtherNet", "NavNet"}},
	} {
		_, err := NewLearner(LearnerConfig{
			Agent: f.agent, Spec: tc.spec, Cfg: tc.cfg, Listener: f.ln, TotalSteps: 8,
		})
		if err == nil {
			t.Errorf("%s: NewLearner accepted it", tc.name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, w)
			}
		}
	}
}
