package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"time"

	"dronerl/internal/dist"
	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/transfer"
)

// onlineKind selects one learning workload.
type onlineKind struct {
	cfg          nn.Config
	actors       int // 0: one per core
	trainBackend string
	dist         bool // actors are wire-protocol clients of a dist.Learner on loopback TCP
	segSteps     int  // fleet env steps per segment at scale 1
	twinSteps    int  // length of the two seeded Actors 1 runs whose weights must hash equal (0: none)
}

const (
	onlineBatch = 32 // the accelerator's largest Fig. 13(a) batch point
	trainEvery  = 4  // env steps per weight update, the serial loop's cadence
	syncEvery   = 8  // weight updates per policy publish
)

// onlineInstance holds the transferred policy and the first segment's
// deployed agent; every later segment deploys afresh from the same snapshot
// and the same world seed, so all segments are the same computation.
type onlineInstance struct {
	c     config
	kind  onlineKind
	snap  *nn.Snapshot
	ready *rl.Agent // deployed by setup, consumed by the first segment

	// lastStats and lastDist keep the most recent segment's counters for
	// the traced run's per-layer rows.
	lastStats rl.OnlineStats
	lastDist  distStats
}

// distStats is what one dist-l3 segment counted beyond steps per second.
type distStats struct {
	started                       time.Time
	actorPhase, learnerDrain      time.Duration
	sent, dropped, undelivered    int
	connects, publishes, adoption int
}

// setupOnline deploys the transferred policy snap for the first segment.
func setupOnline(c config, k onlineKind, snap *nn.Snapshot) (instance, error) {
	o := newOnline(c, k, snap)
	var err error
	o.ready, err = o.deploy(o.kind.actors)
	return o, err
}

// newOnline stops short of deploying.
func newOnline(c config, k onlineKind, snap *nn.Snapshot) *onlineInstance {
	return &onlineInstance{c: c, kind: k.on(c), snap: snap}
}

// on resolves the kind's actor count for this machine.
func (k onlineKind) on(c config) onlineKind {
	if k.actors == 0 {
		k.actors = c.procs
	}
	return k
}

func (o *onlineInstance) steps() int {
	// Whole train cadences per actor, so the expected counts are exact, and
	// never so few that the replay cannot fill one batch.
	per := trainEvery * o.kind.actors
	return max(onlineBatch+2*per, o.c.count(o.kind.segSteps)/per*per)
}

func (o *onlineInstance) options(actors, steps int) rl.Options {
	return rl.Options{
		Seed: o.c.seed + 2, BatchSize: onlineBatch, EpsStart: 0.5, EpsDecaySteps: max(1, steps/2),
		LR: 0.001, Actors: actors, SyncEvery: syncEvery, TrainBackend: o.kind.trainBackend,
	}
}

func (o *onlineInstance) deploy(actors int) (*rl.Agent, error) {
	return transfer.Deploy(o.snap, nn.NavNetSpec(), o.kind.cfg, o.options(actors, o.steps()))
}

// world builds actor i's private test environment; the scene depends on the
// benchmark seed only, so every segment flies the same flat.
func (o *onlineInstance) world(i int) *env.World {
	w := env.IndoorApartment(o.c.seed)
	w.Seed(o.c.seed + 1 + 97*int64(i))
	w.Spawn()
	return w
}

func (o *onlineInstance) segment() (segment, error) {
	agent := o.ready
	o.ready = nil
	if agent == nil {
		var err error
		if agent, err = o.deploy(o.kind.actors); err != nil {
			return segment{}, err
		}
	}
	steps := o.steps()
	var wall time.Duration
	var err error
	if o.kind.dist {
		wall, err = o.runDist(agent, steps)
	} else {
		wall, err = o.runLoop(agent, o.kind.actors, steps)
	}
	seg := segment{ops: steps, wall: wall,
		// What one drone sees: the time between two of its own frames.
		p50ms: wall.Seconds() * 1e3 * float64(o.kind.actors) / float64(steps)}
	if err == nil {
		err = finite(agent.Net)
	}
	if err != nil {
		seg.failed = steps
	}
	return seg, err
}

// runLoop is the in-process pipeline end to end: BuildOnlineLoop + Run, the
// clock stopped when Run returns with the learner drained.
func (o *onlineInstance) runLoop(agent *rl.Agent, actors, steps int) (time.Duration, error) {
	loop, _ := transfer.BuildOnlineLoop(agent, o.world(0), nn.NavNetSpec(), o.kind.cfg, steps, o.c.seed+7700)
	loop.TrainEvery, loop.SyncEvery = trainEvery, syncEvery
	t0 := time.Now()
	st, err := loop.Run(context.Background(), steps)
	wall := time.Since(t0)
	if err != nil {
		return wall, err
	}
	o.lastStats = st
	if st.EnvSteps != steps {
		return wall, fmt.Errorf("%d env steps, want %d", st.EnvSteps, steps)
	}
	return wall, checkTrainSteps(st.TrainSteps, steps, actors)
}

// checkTrainSteps holds a run to the learner's cadence: one weight update per
// trainEvery env steps, minus the start-up attempts made while the replay
// held less than one batch. A single actor interleaves deterministically, so
// its count is exact; concurrent actors may be up to one step each ahead of
// or behind their pushes when the learner looks.
func checkTrainSteps(got, steps, actors int) error {
	due := (steps + trainEvery - 1) / trainEvery
	idle := onlineBatch / trainEvery
	lo, hi := due-idle, due-idle
	if actors > 1 {
		lo, hi = due-idle-actors, due
	}
	if got < lo || got > hi {
		return fmt.Errorf("%d train steps for %d env steps, cadence wants %d..%d", got, steps, lo, hi)
	}
	return nil
}

// runDist is the distributed pipeline end to end: a learner on 127.0.0.1:0
// and one dist.RunActor per actor, every transition CRC-framed over TCP.
func (o *onlineInstance) runDist(agent *rl.Agent, steps int) (time.Duration, error) {
	spec, n := nn.NavNetSpec(), o.kind.actors
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	learner, err := dist.NewLearner(dist.LearnerConfig{
		Agent: agent, Spec: spec, Cfg: o.kind.cfg, Listener: ln, ActorSlots: n,
		TotalSteps: steps, TrainEvery: trainEvery, SyncEvery: syncEvery,
	})
	if err != nil {
		ln.Close()
		return 0, err
	}
	worlds := make([]*env.World, n)
	for i := range worlds {
		worlds[i] = o.world(i)
	}

	type learnerResult struct {
		st  dist.LearnerStats
		err error
	}
	type actorResult struct {
		st  dist.ActorStats
		err error
	}
	learned := make(chan learnerResult, 1)
	flown := make(chan actorResult, n)
	t0 := time.Now()
	go func() {
		st, err := learner.Run(context.Background())
		learned <- learnerResult{st, err}
	}()
	for i := 0; i < n; i++ {
		go func(i int) {
			st, err := dist.RunActor(context.Background(), dist.ActorConfig{
				Addr: ln.Addr().String(), Spec: spec, World: worlds[i],
				Steps: steps / n, Seed: o.c.seed + 8800 + 131*int64(i),
			})
			flown <- actorResult{st, err}
		}(i)
	}
	ds := distStats{started: t0}
	var firstErr error
	for i := 0; i < n; i++ {
		r := <-flown
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		ds.sent += r.st.Sent
		ds.dropped += r.st.Dropped
		ds.undelivered += r.st.Undelivered
		ds.connects += r.st.Connects
		ds.adoption += r.st.Adoptions
	}
	ds.actorPhase = time.Since(t0)
	lr := <-learned
	wall := time.Since(t0)
	ds.learnerDrain = wall - ds.actorPhase
	ds.publishes = lr.st.Publishes
	o.lastDist = ds
	switch {
	case firstErr != nil:
		return wall, firstErr
	case lr.err != nil:
		return wall, lr.err
	case ds.sent != steps || ds.dropped != 0 || ds.undelivered != 0:
		return wall, fmt.Errorf("actors sent %d of %d transitions, dropped %d, undelivered %d",
			ds.sent, steps, ds.dropped, ds.undelivered)
	case lr.st.EnvSteps != steps:
		return wall, fmt.Errorf("learner received %d env steps, want %d", lr.st.EnvSteps, steps)
	}
	return wall, checkTrainSteps(lr.st.TrainSteps, steps, n)
}

// finish flies the determinism twins: two seeded single-actor runs of the
// same topology and train backend must leave bit-identical weights.
func (o *onlineInstance) finish() (int, error) {
	if o.kind.twinSteps == 0 {
		return 0, nil
	}
	steps := max(onlineBatch+2*trainEvery, o.c.count(o.kind.twinSteps)/trainEvery*trainEvery)
	var sums [2][sha256.Size]byte
	for i := range sums {
		agent, err := transfer.Deploy(o.snap, nn.NavNetSpec(), o.kind.cfg, o.options(1, steps))
		if err != nil {
			return steps, err
		}
		if _, err := o.runLoop(agent, 1, steps); err != nil {
			return steps, err
		}
		sums[i] = weightHash(agent.Net)
	}
	if sums[0] != sums[1] {
		return steps, fmt.Errorf("two seeded single-actor runs ended with different weights: %x vs %x",
			sums[0][:6], sums[1][:6])
	}
	return 0, nil
}

func (o *onlineInstance) prepare() error { return nil }
func (o *onlineInstance) close() error   { return nil }

// weightHash is the SHA-256 of every parameter's float32 bits in order.
func weightHash(n *nn.Network) [sha256.Size]byte {
	h := sha256.New()
	var b [4]byte
	for _, p := range n.Params() {
		for _, v := range p.W.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// finite rejects a network that training has driven to NaN or Inf.
func finite(n *nn.Network) error {
	for _, p := range n.Params() {
		for _, v := range p.W.Data() {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("parameter %s holds %v after training", p.Name, v)
			}
		}
	}
	return nil
}
