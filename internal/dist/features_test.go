package dist

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dronerl/internal/env"
	_ "dronerl/internal/hw" // registers the quant-train backend
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
)

// weightHash is the SHA-256 of every parameter's float32 bits, online
// network first, then the TD target when the agent keeps one.
func weightHash(a *rl.Agent) [sha256.Size]byte {
	h := sha256.New()
	for _, net := range []*nn.Network{a.Net, a.Target} {
		if net == nil {
			continue
		}
		for _, p := range net.Params() {
			h.Write(f32bytes(p.W.Data()))
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// recordFlight flies a sessionless actor on the given policy and returns the
// experience it would have streamed: with no learner to flush to, the whole
// mission stays in the ring. It flies twice, once fixed to boundary features
// and once to frames, as two welcomes would fix it, and joins the two rows of
// each step — the same step, since the split forward changes no greedy
// action — so a test can send the stream either way.
func recordFlight(t *testing.T, spec nn.ArchSpec, cfg nn.Config, policy *nn.Snapshot, steps int, seed int64) []Experience {
	t.Helper()
	var flights [2][]Experience
	for i := range flights {
		a := newActor(ActorConfig{
			Spec: spec, World: env.IndoorApartment(seed), Steps: steps, Seed: seed,
			FlushEvery: 8, BufferCap: steps,
		})
		a.net.SetConfig(cfg)
		if err := policy.Restore(a.net); err != nil {
			t.Fatal(err)
		}
		a.schedule = rl.Options{EpsStart: 1, EpsEnd: 0.1, EpsDecaySteps: steps / 2}
		a.features = i == 0
		if err := a.fly(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(a.ring) != steps || a.dropped != 0 {
			t.Fatalf("recorded %d of %d steps, dropped %d", len(a.ring), steps, a.dropped)
		}
		flights[i] = a.ring
	}
	stream, frames := flights[0], flights[1]
	for i := range stream {
		e, f := &stream[i], frames[i]
		if e.T.Action != f.T.Action || e.T.Reward != f.T.Reward || e.T.Done != f.T.Done || e.Dist != f.Dist {
			t.Fatalf("step %d: the featured flight and the frames-only one part ways", i)
		}
		if e.T.State != nil || e.T.Next != nil || f.T.Feat != nil || f.T.NextFeat != nil {
			t.Fatalf("step %d: an actor emitted frames beside features", i)
		}
		e.T.State, e.T.Next = f.T.State, f.T.Next
	}
	return stream
}

// TestWireFeaturesBitIdentical pins the exactness claim across the wire: one
// recorded experience stream trains two identical agents, once arriving with
// the actor's boundary features (TrainStep runs the FC tail only) and once
// stripped to frames (TrainStep runs the whole network on them). Per-sample
// ForwardRange rows equal ForwardBatchRange rows by the nn row contract, so
// every weight must end bit-equal.
func TestWireFeaturesBitIdentical(t *testing.T) {
	const steps, flushEvery, trainEvery = 200, 8, 4
	spec := nn.NavNetSpec()
	for _, cfg := range []nn.Config{nn.L2, nn.L3, nn.L4} {
		t.Run(cfg.String(), func(t *testing.T) {
			opts := rl.Options{Seed: 31, BatchSize: 8, ReplayCapacity: 128, TargetSync: 8}
			agents := [2]*rl.Agent{rl.NewAgent(spec, cfg, opts), rl.NewAgent(spec, cfg, opts)}
			if weightHash(agents[0]) != weightHash(agents[1]) {
				t.Fatal("same-seed agents start from different weights")
			}
			start := weightHash(agents[0])
			stream := recordFlight(t, spec, cfg, nn.TakeSnapshot(agents[0].Net, spec.Name), steps, 32)

			for i, a := range agents {
				features := i == 0
				shards := rl.NewReplayShards(1, opts.ReplayCapacity)
				a.SetReplaySource(shards)
				pushed := 0
				for at := 0; at < len(stream); at += flushEvery {
					payload, err := appendExperience(nil, stream[at:at+flushEvery], features)
					if err != nil {
						t.Fatal(err)
					}
					batch, err := decodeExperience(payload)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range batch {
						if (e.T.Feat != nil) != features || (e.T.NextFeat != nil) != features {
							t.Fatalf("transition %d: features %v on the wire, want %v",
								pushed, e.T.Feat != nil, features)
						}
						shards.PushTo(0, e.T)
						a.Clock().TickEnv()
						if pushed++; pushed%trainEvery == 0 {
							a.TrainStep()
						}
					}
				}
				if got := a.Clock().TrainSteps(); got < 40 {
					t.Fatalf("only %d train steps ran", got)
				}
			}
			with, without := weightHash(agents[0]), weightHash(agents[1])
			if with == start {
				t.Fatal("training left the weights untouched")
			}
			if with != without {
				t.Fatalf("weights diverge: %x with wire features, %x recomputed from frames", with[:6], without[:6])
			}
		})
	}
}

// discardConn accepts every write; the rest of net.Conn is never reached on
// the flush path.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// TestMaybeFlushZeroAlloc pins the one-buffer flush: once the actor's frame
// buffer has grown to a flush's size, encoding, framing, checksumming and
// writing FlushEvery transitions — as frames or as boundary features — or a
// heartbeat allocates nothing.
func TestMaybeFlushZeroAlloc(t *testing.T) {
	cfg := ActorConfig{Spec: nn.NavNetSpec(), World: env.IndoorApartment(1), Steps: 1, Addr: "unused"}
	if err := cfg.withDefaults(); err != nil {
		t.Fatal(err)
	}
	a := newActor(cfg)
	for i := 0; i < cfg.FlushEvery; i++ {
		a.push(Experience{T: rl.Transition{
			State: tensor.New(1, 32, 32), Next: tensor.New(1, 32, 32), Action: i % 3,
			Feat: featTensor(int64(i), 128), NextFeat: featTensor(int64(i)+100, 128),
		}})
	}
	a.sess.Store(&session{conn: discardConn{}, dead: make(chan struct{})})
	for _, features := range []bool{false, true} {
		a.features = features
		a.stats.Sent = 0
		if allocs := testing.AllocsPerRun(20, func() {
			a.ringHead = 0
			a.maybeFlush(false)
		}); allocs != 0 {
			t.Errorf("flushing %d transitions (features %v) allocates %.0f times", cfg.FlushEvery, features, allocs)
		}
		if a.stats.Sent != 21*cfg.FlushEvery {
			t.Fatalf("sent %d transitions, want %d", a.stats.Sent, 21*cfg.FlushEvery)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		a.lastWrite = time.Time{}
		a.maybeFlush(false)
	}); allocs != 0 {
		t.Errorf("a heartbeat allocates %.0f times", allocs)
	}
}

// rawSession is a hand-driven actor session: it dials the learner, completes
// the handshake and returns the connection for the test to misuse.
func rawSession(t *testing.T, f *testFleet) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello, err := appendHello(nil, helloMsg{Arch: f.spec.Name})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameHello, hello); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for _, want := range []byte{frameWelcome, frameSnapshot} {
		if typ, _, err := readFrame(conn); err != nil || typ != want {
			t.Fatalf("handshake: frame %d, err %v, want frame %d", typ, err, want)
		}
	}
	return conn
}

// awaitClose reads learner frames until the learner ends the session.
func awaitClose(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		if _, _, err := readFrame(conn); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatal("learner kept the session open")
			}
			return
		}
	}
}

// TestLearnerRejectsBadExperience sends the learner one CRC-valid frame it
// must not train on, from a hand-driven session, while a well-behaved actor
// flies the whole run on the same learner. The bad session must be dropped
// under the expected DropReasons class, nothing of its frame may enter a
// shard (the learner's env steps are exactly the good actor's), and the
// learner must train to the end instead of panicking in TrainStep.
func TestLearnerRejectsBadExperience(t *testing.T) {
	const goodSteps = 64
	frame := func() *tensor.Tensor { return tensor.New(1, nn.NavNetInput, nn.NavNetInput) }
	good := func() Experience {
		return Experience{T: rl.Transition{
			State: frame(), Next: frame(), Action: 1, Reward: 0.5,
			Feat: featTensor(1, 128), NextFeat: featTensor(2, 128),
		}, Dist: 1}
	}
	// framed is the good row as an actor fixed to frames sends it.
	framed := func() Experience {
		e := good()
		e.T.Feat, e.T.NextFeat = nil, nil
		return e
	}
	// send frames a batch as the actor would and writes it.
	send := func(t *testing.T, conn net.Conn, batch ...Experience) {
		payload, err := appendExperience(nil, batch, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, frameTransitions, payload); err != nil {
			t.Fatal(err)
		}
	}
	mutate := func(edit func(e *Experience)) func(*testing.T, net.Conn) {
		return func(t *testing.T, conn net.Conn) {
			bad := good()
			edit(&bad)
			// The bad transition rides second: the good one ahead of it must
			// not enter the shard either.
			send(t, conn, good(), bad)
		}
	}
	cases := []struct {
		name   string
		cfg    nn.Config
		misuse func(t *testing.T, conn net.Conn)
		want   DropReasons
	}{
		{"wrong observation shape", nn.E2E, func(t *testing.T, conn net.Conn) {
			send(t, conn, Experience{T: rl.Transition{State: obsTensor(1), Next: obsTensor(2)}})
		}, DropReasons{RejectedExperience: 1}},
		{"action outside the Q row", nn.L3,
			mutate(func(e *Experience) { e.T.Action = nn.NavNetActions }), DropReasons{RejectedExperience: 1}},
		{"NaN reward", nn.L3,
			mutate(func(e *Experience) { e.T.Reward = math.NaN() }), DropReasons{RejectedExperience: 1}},
		{"infinite reward", nn.L3,
			mutate(func(e *Experience) { e.T.Reward = math.Inf(-1) }), DropReasons{RejectedExperience: 1}},
		{"NaN flight distance", nn.L3,
			mutate(func(e *Experience) { e.Dist = math.NaN() }), DropReasons{RejectedExperience: 1}},
		{"NaN boundary feature", nn.L3,
			mutate(func(e *Experience) { e.T.NextFeat.Data()[77] = float32(math.NaN()) }), DropReasons{RejectedExperience: 1}},
		// At a learner that reads frames, so the frame's value is what fails.
		{"+Inf frame", nn.E2E, func(t *testing.T, conn net.Conn) {
			bad := framed()
			bad.T.State.Data()[5] = float32(math.Inf(1))
			send(t, conn, framed(), bad)
		}, DropReasons{RejectedExperience: 1}},
		{"wrong feature width", nn.L3, func(t *testing.T, conn net.Conn) {
			e := good()
			e.T.Feat, e.T.NextFeat = featTensor(3, 64), featTensor(4, 64)
			send(t, conn, e)
		}, DropReasons{RejectedExperience: 1}},
		{"features for a learner that trains every layer", nn.E2E,
			mutate(func(*Experience) {}), DropReasons{RejectedExperience: 1}},
		{"undecodable payload", nn.L3, func(t *testing.T, conn net.Conn) {
			if err := writeFrame(conn, frameTransitions, []byte{1, 0, 3, 0xff}); err != nil {
				t.Fatal(err)
			}
		}, DropReasons{Corrupt: 1}},
		{"CRC mismatch", nn.L3, func(t *testing.T, conn net.Conn) {
			payload, err := appendExperience(nil, []Experience{good()}, true)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			writeFrame(&buf, frameTransitions, payload)
			buf.Bytes()[40] ^= 1
			if _, err := conn.Write(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}, DropReasons{Corrupt: 1}},
		{"link cut mid-frame", nn.L3, func(t *testing.T, conn net.Conn) {
			payload, err := appendExperience(nil, []Experience{good()}, true)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			writeFrame(&buf, frameTransitions, payload)
			if _, err := conn.Write(buf.Bytes()[:buf.Len()/2]); err != nil {
				t.Fatal(err)
			}
			conn.Close()
		}, DropReasons{Truncated: 1}},
		{"silence past the heartbeat timeout", nn.L3,
			func(*testing.T, net.Conn) {}, DropReasons{Timeout: 1}},
		// The rows travel as features only, and this learner reads frames.
		{"frameless row for a learner that reads frames", nn.L3,
			mutate(func(*Experience) {}), DropReasons{RejectedExperience: 1}},
		// The converse: a float L3 learner trains on features, and no learner
		// recomputes them from frames.
		{"featureless row rejected at a feature learner", nn.L3, func(t *testing.T, conn net.Conn) {
			send(t, conn, good(), framed())
		}, DropReasons{RejectedExperience: 1}},
	}
	// The learner of a case named here trains on that backend.
	backend := map[string]string{"frameless row for a learner that reads frames": "quant-train"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFleet(t, 41, tc.cfg)
			if b := backend[tc.name]; b != "" {
				f.trainOn(t, b)
			}
			learner, err := NewLearner(LearnerConfig{
				Agent: f.agent, Spec: f.spec, Cfg: f.cfg, Listener: f.ln,
				ActorSlots: 2, TotalSteps: goodSteps, TrainEvery: 4, SyncEvery: 4,
				HeartbeatEvery: 25 * time.Millisecond, HeartbeatTimeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			type result struct {
				st  LearnerStats
				err error
			}
			done := make(chan result, 1)
			go func() {
				st, err := learner.Run(ctx)
				done <- result{st, err}
			}()

			conn := rawSession(t, f)
			tc.misuse(t, conn)
			awaitClose(t, conn)

			ast, err := RunActor(ctx, f.actorConfig(42, goodSteps))
			if err != nil {
				t.Fatalf("good actor: %v", err)
			}
			if ast.Sent != goodSteps || ast.Connects != 1 {
				t.Errorf("good actor stats %+v, want %d sent on one session", ast, goodSteps)
			}
			r := <-done
			if r.err != nil {
				t.Fatalf("learner: %v", r.err)
			}
			if r.st.DropReasons != tc.want {
				t.Errorf("drop reasons %+v, want %+v", r.st.DropReasons, tc.want)
			}
			if r.st.EnvSteps != goodSteps {
				t.Errorf("learner took in %d env steps, want exactly the good actor's %d", r.st.EnvSteps, goodSteps)
			}
			if r.st.TrainSteps < goodSteps/4-1 {
				t.Errorf("learner trained %d steps on %d env steps", r.st.TrainSteps, goodSteps)
			}
		})
	}
}

// helloDowngrade rewrites the first frame an actor writes — its hello — to
// announce an older wire protocol.
type helloDowngrade struct {
	net.Conn
	rewrite func(hello helloMsg) ([]byte, error)
	sent    bool
}

func (c *helloDowngrade) Write(p []byte) (int, error) {
	if c.sent {
		return c.Conn.Write(p)
	}
	c.sent = true
	_, payload, err := readFrame(bytes.NewReader(p))
	if err != nil {
		return 0, err
	}
	hello, err := decodeHello(payload)
	if err != nil {
		return 0, err
	}
	if payload, err = c.rewrite(hello); err != nil {
		return 0, err
	}
	return len(p), writeFrame(c.Conn, frameHello, payload)
}

// withProto is the hello's fixed layout under another proto word.
func withProto(proto uint32) func(helloMsg) ([]byte, error) {
	return func(hello helloMsg) ([]byte, error) {
		payload, err := appendHello(nil, hello)
		if err == nil {
			binary.LittleEndian.PutUint32(payload, proto)
		}
		return payload, err
	}
}

// gobHelloV3 is the hello as revisions 1 to 3 sent it: gob-encoded.
func gobHelloV3(hello helloMsg) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Proto   uint32
		Arch    string
		ActorID uint64
	}{3, hello.Arch, hello.ActorID})
	return buf.Bytes(), err
}

// TestProtoOneHelloRefused: a proto-1 peer would frame transitions without
// the width word, a proto-2 peer sends gob snapshots and a proto-3 peer
// sends a state frame beside every boundary feature, so none may get past
// the handshake — in the fixed layout under an old proto word, or as the
// gob hello a revision-3 build really sends. The learner answers the hello
// with a clean close and no welcome; the actor reads that as a refusal and
// gives up after three, instead of retrying forever or mis-parsing anything.
func TestProtoOneHelloRefused(t *testing.T) {
	for _, proto := range []uint32{1, 2, 3} {
		t.Run(fmt.Sprint(proto), func(t *testing.T) { testOldHelloRefused(t, fmt.Sprint(proto), withProto(proto)) })
	}
	t.Run("gob-3", func(t *testing.T) { testOldHelloRefused(t, "gob-3", gobHelloV3) })
}

func testOldHelloRefused(t *testing.T, proto string, rewrite func(helloMsg) ([]byte, error)) {
	f := newFleet(t, 51, nn.L3)
	learner, err := NewLearner(LearnerConfig{
		Agent: f.agent, Spec: f.spec, Cfg: f.cfg, Listener: f.ln,
		ActorSlots: 1, TotalSteps: 8, HeartbeatEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	done := make(chan LearnerStats, 1)
	go func() {
		st, _ := learner.Run(lctx)
		done <- st
	}()

	var dials atomic.Int64
	cfg := f.actorConfig(52, 8)
	cfg.Dial = func(ctx context.Context) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", f.addr)
		if err != nil {
			return nil, err
		}
		return &helloDowngrade{Conn: conn, rewrite: rewrite}, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := RunActor(ctx, cfg)
	if !errors.Is(err, errRefused) {
		t.Fatalf("proto-%s actor: %v, want errRefused", proto, err)
	}
	if dials.Load() != 3 || st.Steps != 0 || st.Connects != 0 {
		t.Errorf("proto-%s actor dialed %d times, flew %d steps on %d sessions; want 3 refusals and nothing else",
			proto, dials.Load(), st.Steps, st.Connects)
	}
	lcancel()
	if lst := <-done; lst.Connects != 0 || lst.EnvSteps != 0 {
		t.Errorf("learner admitted a proto-%s peer: %+v", proto, lst)
	}
}

// rowTap counts what one actor's transitions frames carry: rows whose
// state and next state travel as frames, and rows that carry no frame.
type rowTap struct {
	net.Conn
	t                 *testing.T
	framed, frameless *atomic.Int64
}

func (c *rowTap) Write(p []byte) (int, error) {
	// The actor writes whole frames, one per Write.
	if typ, payload, err := readFrame(bytes.NewReader(p)); err == nil && typ == frameTransitions {
		batch, err := decodeExperience(payload)
		if err != nil {
			c.t.Errorf("actor wrote an undecodable batch: %v", err)
		}
		for _, e := range batch {
			switch {
			case e.T.State != nil && (e.T.Next != nil || e.T.Done) && e.T.Feat == nil && e.T.NextFeat == nil:
				c.framed.Add(1)
			case e.T.State == nil && e.T.Next == nil:
				c.frameless.Add(1)
			default:
				c.t.Errorf("transition carries frames and features: state %v feat %v next %v next-feat %v",
					e.T.State != nil, e.T.Feat != nil, e.T.Next != nil, e.T.NextFeat != nil)
			}
		}
	}
	return c.Conn.Write(p)
}

// TestDistQuantTrainLearnerGetsFrames: the welcome tells the actor what the
// learner reads. A quant-train learner's backend stacks frames and runs its
// own integer prefix, so at L3 it is sent frames and no features, and trains
// to the end rejecting nothing; a float L3 learner trains the FC tail on
// boundary features and is sent no frame at all.
func TestDistQuantTrainLearnerGetsFrames(t *testing.T) {
	const steps = 64
	for _, tc := range []struct {
		backend string
		framed  bool
	}{{"quant-train", true}, {"", false}} {
		t.Run(cmp.Or(tc.backend, "float"), func(t *testing.T) {
			f := newFleet(t, 57, nn.L3)
			if tc.backend != "" {
				f.trainOn(t, tc.backend)
			}
			learner, err := NewLearner(LearnerConfig{
				Agent: f.agent, Spec: f.spec, Cfg: f.cfg, Listener: f.ln,
				ActorSlots: 1, TotalSteps: steps, TrainEvery: 4, SyncEvery: 4,
				HeartbeatEvery: 25 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			type result struct {
				st  LearnerStats
				err error
			}
			done := make(chan result, 1)
			go func() {
				st, err := learner.Run(ctx)
				done <- result{st, err}
			}()

			var framed, frameless atomic.Int64
			cfg := f.actorConfig(58, steps)
			cfg.Dial = func(ctx context.Context) (net.Conn, error) {
				var d net.Dialer
				conn, err := d.DialContext(ctx, "tcp", f.addr)
				if err != nil {
					return nil, err
				}
				return &rowTap{Conn: conn, t: t, framed: &framed, frameless: &frameless}, nil
			}
			ast, err := RunActor(ctx, cfg)
			if err != nil {
				t.Fatalf("actor: %v", err)
			}
			r := <-done
			if r.err != nil {
				t.Fatalf("learner: %v", r.err)
			}
			if ast.Sent != steps || r.st.EnvSteps != steps || r.st.DropReasons != (DropReasons{}) {
				t.Errorf("actor sent %d, learner took in %d with drops %+v; want all %d, none dropped",
					ast.Sent, r.st.EnvSteps, r.st.DropReasons, steps)
			}
			if r.st.TrainSteps < steps/4-1 {
				t.Errorf("learner trained %d steps on %d env steps", r.st.TrainSteps, steps)
			}
			want, other := &frameless, &framed
			if tc.framed {
				want, other = &framed, &frameless
			}
			if want.Load() != steps || other.Load() != 0 {
				t.Errorf("%d rows framed, %d frameless; want all %d framed %v", framed.Load(), frameless.Load(), steps, tc.framed)
			}
			if tc.framed && f.agent.Substrate().TrainCost.EnergyMJ == 0 {
				t.Error("the quant-train backend trained nothing")
			}
		})
	}
}

// TestLearnerDoneReleasesActor: a learner that completes its run says so
// before it closes its sessions, and an actor with mission left neither
// redials it nor waits out its drain and bye windows for it — it flies its
// steps and returns with the undelivered tail counted.
func TestLearnerDoneReleasesActor(t *testing.T) {
	f := newFleet(t, 55, nn.L3)
	learner, err := NewLearner(LearnerConfig{
		Agent: f.agent, Spec: f.spec, Cfg: f.cfg, Listener: f.ln,
		ActorSlots: 1, TotalSteps: 40, TrainEvery: 4, HeartbeatEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := learner.Run(ctx)
		done <- err
	}()

	// A mission long enough that the learner finishes its 40 steps well before
	// the actor has flown (and could have sent) all of its own.
	const mission = 2000
	var dials atomic.Int64
	cfg := f.actorConfig(56, mission)
	cfg.DrainTimeout = 20 * time.Second
	cfg.Dial = func(ctx context.Context) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, "tcp", f.addr)
	}
	start := time.Now()
	st, err := RunActor(ctx, cfg)
	if err != nil {
		t.Fatalf("actor: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("learner: %v", err)
	}
	if st.Steps != mission || st.Sent < 40 || st.Sent+st.Undelivered+st.Dropped != mission || st.Undelivered == 0 {
		t.Errorf("actor stats %+v, want %d steps flown, at least the learner's 40 sent, the rest undelivered", st, mission)
	}
	if dials.Load() != 1 {
		t.Errorf("actor dialed %d times; a finished learner is not to be redialed", dials.Load())
	}
	// Unreleased, the actor would sit out DrainTimeout (20s here) and the bye
	// window (1s) after its last step.
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("actor took %v to return after the learner finished", took)
	}
}
