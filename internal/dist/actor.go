package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dronerl/internal/env"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
)

// ActorConfig assembles a remote actor. Spec, World and Steps are required;
// either Addr (with Network) or Dial must be set.
type ActorConfig struct {
	// Network and Addr locate the learner ("tcp"/"unix" + address). Dial,
	// when set, replaces the default dialer entirely — the chaos harness
	// uses it to wrap connections in failure injectors.
	Network, Addr string
	Dial          func(ctx context.Context) (net.Conn, error)
	// Spec is the policy architecture; it must match the learner's (the
	// handshake enforces it). The training topology arrives in the welcome.
	Spec nn.ArchSpec
	// World is this actor's private environment and Steps its share of the
	// fleet's environment steps.
	World *env.World
	Steps int
	// Seed drives the actor's private exploration rng.
	Seed int64
	// ActorID, when nonzero, reclaims a previously assigned slot — how a
	// restarted actor process resumes feeding its shard (the chaos harness
	// threads the ID across kills). Zero asks for a fresh slot.
	ActorID uint64
	// FlushEvery batches transitions per frame (default 8). BufferCap
	// bounds the local ring buffer that absorbs learner outages (default
	// 4096 transitions); when it overflows the oldest experience is
	// dropped, counted in ActorStats.Dropped.
	FlushEvery, BufferCap int
	// BackoffMin and BackoffMax bound the reconnect schedule (defaults
	// 50ms and 2s): exponential doubling from min to max with ±50% jitter,
	// so a fleet orphaned by a learner restart does not reconnect in
	// lockstep.
	BackoffMin, BackoffMax time.Duration
	// HeartbeatEvery is the actor's keepalive cadence when no transitions
	// are flowing (default 250ms); a learner connection silent for
	// HeartbeatTimeout (default 3s) is declared dead.
	HeartbeatEvery, HeartbeatTimeout time.Duration
	// DrainTimeout bounds the final backlog flush after the last step
	// (default 5s): the actor keeps reconnecting that long to deliver the
	// tail of its experience before giving up.
	DrainTimeout time.Duration
}

func (c *ActorConfig) withDefaults() error {
	if c.Spec.Name == "" || c.World == nil || c.Steps <= 0 {
		return errors.New("dist: ActorConfig needs Spec, World and Steps")
	}
	if c.Dial == nil && c.Addr == "" {
		return errors.New("dist: ActorConfig needs Addr or Dial")
	}
	if c.Network == "" {
		c.Network = "tcp"
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 8
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 4096
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = max(2*time.Second, c.BackoffMin)
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return nil
}

// ActorStats summarizes one actor run.
type ActorStats struct {
	// ActorID is the learner-assigned identity; pass it back through
	// ActorConfig.ActorID to resume this actor's slot after a restart.
	ActorID uint64
	// Steps counts environment steps taken, Sent transitions delivered to
	// the learner, Dropped transitions evicted from the local ring while
	// the learner was unreachable, Undelivered transitions still in the
	// ring when the run ended.
	Steps, Sent, Dropped, Undelivered int
	// Connects counts sessions established (the first plus every
	// reconnect) and Adoptions policy snapshots installed at episode
	// boundaries.
	Connects, Adoptions int
}

// session is one live learner connection from the actor's side.
type session struct {
	conn net.Conn
	dead chan struct{}
	once sync.Once
}

func (s *session) kill() {
	s.once.Do(func() {
		close(s.dead)
		s.conn.Close()
	})
}

// ErrLearnerChanged ends RunActor when a reconnect's handshake disagrees
// with the first one on the training topology, on whether the learner
// trains on boundary features, or on a frozen-prefix word: the first fixed
// what the actor's rows carry for the whole run, and no row goes to a
// learner that would read them differently.
var ErrLearnerChanged = errors.New("dist: learner changed across a reconnect")

// actor is the running state of RunActor.
type actor struct {
	cfg ActorConfig
	net *nn.Network
	// rng drives exploration (stepping goroutine only); backoffRng drives
	// reconnect jitter, kept separate so reconnects neither race the
	// stepping goroutine nor perturb the exploration stream.
	rng, backoffRng *rand.Rand

	id uint64 // assigned by the first welcome, reused on reconnect
	// initialized flips after the first completed handshake of this
	// process, which fixes the fields below it for the run; both happen
	// before the stepping and reconnect goroutines exist. frozen counts the
	// frozen prefix's parameters; their words in net stay the first
	// handshake's, since adoption never writes one.
	initialized bool
	schedule    rl.Options
	config      nn.Config
	features    bool
	frozen      int

	sess atomic.Pointer[session]
	// pending is the newest trainable region received and not yet adopted
	// (at an episode boundary), from a publish or a reconnect's handshake.
	pending atomic.Pointer[nn.Snapshot]
	// learnerDone flips when the learner announces its run complete (a bye
	// from its side): there is nothing left to reconnect to, deliver to or
	// say goodbye to.
	learnerDone atomic.Bool
	// byeMu is held by sendBye from before the bye is written until the
	// reconnect loop has been told to stop.
	byeMu sync.Mutex
	// globalEnv estimates the fleet-wide env-step count: seeded by the
	// welcome, bumped per local step, re-based by learner heartbeats. It
	// only drives the epsilon schedule, so "roughly synchronized" is
	// enough.
	globalEnv atomic.Int64

	// ring is the local experience buffer; single-goroutine (the stepping
	// loop), so unlocked. frame is that goroutine's reusable outgoing frame:
	// every flush and heartbeat is encoded, sealed and written from it.
	ring     []Experience
	ringHead int
	dropped  int
	frame    []byte

	connects  atomic.Int64
	lastWrite time.Time
	stats     ActorStats
}

// RunActor flies one remote actor: it connects to the learner (retrying
// with backoff until ctx cancels), then steps its private world for
// cfg.Steps steps, streaming experience and adopting published policies at
// episode boundaries. The learner being unreachable never stops the flying:
// experience buffers into a bounded local ring and replays on reconnect.
// The first handshake is the only hard dependency — epsilon schedule,
// topology and initial weights come from the welcome.
func RunActor(ctx context.Context, cfg ActorConfig) (ActorStats, error) {
	if err := cfg.withDefaults(); err != nil {
		return ActorStats{}, err
	}
	return newActor(cfg).run(ctx)
}

// newActor builds the running state for a config that has its defaults.
func newActor(cfg ActorConfig) *actor {
	return &actor{
		cfg:        cfg,
		net:        cfg.Spec.Build(),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		backoffRng: rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		ring:       make([]Experience, 0, cfg.BufferCap),
		id:         cfg.ActorID,
	}
}

// run is RunActor on a built actor; tests build their own to watch its state.
func (a *actor) run(ctx context.Context) (ActorStats, error) {
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// First connection is blocking: nothing can fly without the welcome.
	if err := a.connect(runCtx); err != nil {
		return a.snapshotStats(), err
	}
	// From here on, reconnects run in the background while the actor keeps
	// flying; reconnectLoop exits when its context cancels — with the run,
	// or as soon as the bye is on the wire — or ends the run with
	// ErrLearnerChanged.
	reconnCtx, stopReconnect := context.WithCancel(runCtx)
	defer stopReconnect()
	go a.reconnectLoop(reconnCtx, cancel)

	err := a.fly(runCtx)
	if err == nil {
		err = a.drain(runCtx)
	}
	if err != nil {
		err = context.Cause(runCtx)
	}
	// The bye announces a *clean* departure: mission flown, backlog drained
	// (or drain timed out). A cancelled actor is a crash from the learner's
	// point of view and must not pretend otherwise — its slot stays reserved
	// for the restart, and the learner's idle timeout covers the case where
	// no restart ever comes.
	if err == nil {
		a.sendBye(runCtx, stopReconnect)
	}
	cancel(nil)
	if s := a.sess.Load(); s != nil {
		s.kill()
	}
	return a.snapshotStats(), err
}

func (a *actor) snapshotStats() ActorStats {
	st := a.stats
	st.ActorID = a.id
	st.Dropped = a.dropped
	st.Undelivered = len(a.ring) - a.ringHead
	st.Connects = int(a.connects.Load())
	return st
}

// fly is the stepping loop: rl.Actor's act → step → capture, ring push,
// opportunistic flush, episode-boundary adoption. When the first welcome
// asked for features, each transition carries the float boundary features
// of its frames instead of the frames, computed once per frame: this drone
// is the only place the prefix of its frames is ever evaluated.
func (a *actor) fly(ctx context.Context) error {
	act := &rl.Actor{
		Net: a.net, World: a.cfg.World, Rng: a.rng, Schedule: a.schedule,
		Actions: a.actions(), FloatFeatures: a.features,
	}
	for k := 0; k < a.cfg.Steps; k++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		tr, res := act.Step(a.globalEnv.Add(1))
		a.push(Experience{T: tr, Dist: res.FlightDistance})
		a.stats.Steps++
		a.maybeFlush(false)
		if res.Crashed {
			a.adoptPending()
		}
	}
	return nil
}

func (a *actor) actions() int {
	return a.cfg.Spec.FCs[len(a.cfg.Spec.FCs)-1].Out
}

// push appends to the ring, evicting the oldest entry when full. Eviction
// compacts lazily: consumed (head) space is reclaimed first.
func (a *actor) push(e Experience) {
	if a.ringHead > 0 && (len(a.ring) == cap(a.ring) || a.ringHead >= a.cfg.BufferCap/2) {
		n := copy(a.ring, a.ring[a.ringHead:])
		a.ring = a.ring[:n]
		a.ringHead = 0
	}
	if len(a.ring) == cap(a.ring) {
		copy(a.ring, a.ring[1:])
		a.ring = a.ring[:len(a.ring)-1]
		a.dropped++
	}
	a.ring = append(a.ring, e)
}

// maybeFlush sends buffered experience to the live session, FlushEvery at a
// time (everything when force is set), falling back to a heartbeat when
// there is nothing to send but the link has been quiet too long. Entries
// leave the ring only after a successful write — a failed write kills the
// session and keeps the backlog for the next one. Delivery is therefore
// at-most-once per transition: a frame the kernel accepted but the learner
// never read is lost with the connection, which replay-based RL absorbs
// (the learner trains on what arrived; nothing torn ever enters a shard).
func (a *actor) maybeFlush(force bool) {
	s := a.sess.Load()
	if s == nil {
		return
	}
	backlog := len(a.ring) - a.ringHead
	if backlog < a.cfg.FlushEvery && !force {
		if backlog == 0 && time.Since(a.lastWrite) > a.cfg.HeartbeatEvery {
			a.frame = binary.BigEndian.AppendUint64(beginFrame(a.frame, frameHeartbeat), uint64(a.globalEnv.Load()))
			a.send(s)
		}
		return
	}
	for {
		backlog = len(a.ring) - a.ringHead
		if backlog == 0 || (backlog < a.cfg.FlushEvery && !force) {
			return
		}
		n := backlog
		if n > a.cfg.FlushEvery {
			n = a.cfg.FlushEvery
		}
		var err error
		a.frame, err = appendExperience(beginFrame(a.frame, frameTransitions),
			a.ring[a.ringHead:a.ringHead+n], a.features)
		if err != nil {
			// Unencodable experience is a programming error on this side;
			// drop the batch rather than wedge the ring forever.
			a.ringHead += n
			a.dropped += n
			continue
		}
		if !a.send(s) {
			return
		}
		a.ringHead += n
		a.stats.Sent += n
	}
}

// send seals the frame begun in a.frame and writes it to the session,
// killing the session when that fails.
func (a *actor) send(s *session) bool {
	var err error
	if a.frame, err = endFrame(a.frame); err == nil {
		_, err = s.conn.Write(a.frame)
	}
	if err != nil {
		s.kill()
		return false
	}
	a.lastWrite = time.Now()
	return true
}

// adoptPending installs the staged policy, if any, into the trainable
// region. One that does not install (a NaN, a foreign layout) is refused
// whole: the actor keeps flying every bit of the policy it had.
func (a *actor) adoptPending() {
	if p := a.pending.Swap(nil); p != nil && p.RestoreTrainable(a.net) == nil {
		a.stats.Adoptions++
	}
}

// drain delivers the final backlog: keep flushing (and waiting for
// reconnects) until the ring is empty, the DrainTimeout passes, or ctx
// cancels.
func (a *actor) drain(ctx context.Context) error {
	deadline := time.Now().Add(a.cfg.DrainTimeout)
	for len(a.ring)-a.ringHead > 0 {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) || a.learnerDone.Load() {
			return nil // undelivered tail reported in stats
		}
		a.maybeFlush(true)
		if len(a.ring)-a.ringHead > 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// sendBye announces a clean departure, retrying briefly across reconnects:
// the bye is what lets the learner finish without waiting for experience
// that will never come, so it is worth a short wait for a live session.
func (a *actor) sendBye(ctx context.Context, stopReconnect func()) {
	deadline := time.Now().Add(time.Second)
	for {
		if s := a.sess.Load(); s != nil {
			// The learner answers a bye by closing the session. That is the
			// departure completing, not a link to re-establish: a redial
			// would sign the departed actor back in. byeMu makes the write
			// and the stop one step as the reconnect loop sees them — the
			// learner can close faster than this goroutine gets to run again.
			a.byeMu.Lock()
			err := writeFrame(s.conn, frameBye, nil)
			if err == nil {
				stopReconnect()
			}
			a.byeMu.Unlock()
			if err == nil {
				// Let the learner close first. Slamming our side shut with
				// unread learner heartbeats still in the receive buffer turns
				// the close into a TCP reset, which can destroy the bye (and
				// the final flush) before the learner reads them. The learner
				// drops the connection once it processes the bye; our read
				// loop sees that EOF and marks the session dead.
				if cw, ok := s.conn.(interface{ CloseWrite() error }); ok {
					cw.CloseWrite()
				}
				select {
				case <-s.dead:
				case <-time.After(time.Second):
				case <-ctx.Done():
				}
				return
			}
			s.kill()
		}
		if ctx.Err() != nil || time.Now().After(deadline) || a.learnerDone.Load() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// connect dials and handshakes until it succeeds or ctx cancels, with
// exponential backoff and jitter between attempts. A hello answered by an
// immediate clean close three times in a row gives up: the learner is
// refusing this actor (wrong protocol, wrong architecture, or no free
// slot), and retrying cannot fix that; nor ErrLearnerChanged, which gives
// up at once.
func (a *actor) connect(ctx context.Context) error {
	delay := a.cfg.BackoffMin
	refusals := 0
	for {
		err := a.dialOnce(ctx)
		if err == nil || errors.Is(err, ErrLearnerChanged) {
			return err
		}
		if errors.Is(err, errRefused) {
			if refusals++; refusals >= 3 {
				return err
			}
		} else {
			refusals = 0
		}
		// The reconnect rng is private to whichever goroutine runs connect
		// at a time (the stepping goroutine for the first handshake, the
		// reconnect loop after), never both at once.
		jittered := delay/2 + time.Duration(a.backoffRng.Int63n(int64(delay)))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(jittered):
		}
		delay *= 2
		if delay > a.cfg.BackoffMax {
			delay = a.cfg.BackoffMax
		}
	}
}

// reconnectLoop watches the live session and replaces it when it dies. A
// learner that changed ends the run: abort cancels it with the cause.
func (a *actor) reconnectLoop(ctx context.Context, abort context.CancelCauseFunc) {
	for {
		s := a.sess.Load()
		if s == nil {
			if ctx.Err() != nil || a.learnerDone.Load() {
				return
			}
			if err := a.connect(ctx); err != nil {
				if errors.Is(err, ErrLearnerChanged) {
					abort(err)
				}
				return
			}
			continue
		}
		select {
		case <-ctx.Done():
			return
		case <-s.dead:
			// Wait out a bye in flight: if this session died of one, ctx is
			// cancelled by the time the lock is free.
			a.byeMu.Lock()
			a.sess.CompareAndSwap(s, nil)
			a.byeMu.Unlock()
		}
	}
}

// dialTimeout bounds one connection attempt: the dial and the handshake.
const dialTimeout = 2 * time.Second

// errRefused marks a handshake answered by an immediate clean close — the
// learner's way of rejecting a hello it will never accept.
var errRefused = errors.New("dist: learner refused handshake")

// dialOnce makes one connection attempt: dial, hello, welcome, policy
// snapshot, then publish the session and start its reader.
func (a *actor) dialOnce(ctx context.Context) error {
	dialCtx, cancel := context.WithTimeout(ctx, dialTimeout)
	defer cancel()
	var conn net.Conn
	var err error
	if a.cfg.Dial != nil {
		conn, err = a.cfg.Dial(dialCtx)
	} else {
		var d net.Dialer
		conn, err = d.DialContext(dialCtx, a.cfg.Network, a.cfg.Addr)
	}
	if err != nil {
		return err
	}

	hello, err := appendHello(nil, helloMsg{Arch: a.cfg.Spec.Name, ActorID: a.id})
	if err != nil {
		conn.Close()
		return err
	}
	conn.SetDeadline(time.Now().Add(dialTimeout))
	if err := writeFrame(conn, frameHello, hello); err != nil {
		conn.Close()
		return err
	}
	typ, payload, err := readFrame(conn)
	if err != nil || typ != frameWelcome {
		conn.Close()
		switch {
		case err == io.EOF:
			// A clean close right after our hello is the learner refusing
			// it; connect gives up after a few of these in a row.
			err = fmt.Errorf("%w: connection closed after hello", errRefused)
		case err == nil:
			err = fmt.Errorf("%w: expected welcome, got frame %d", ErrFrameCorrupt, typ)
		}
		return err
	}
	welcome, err := decodeWelcome(payload)
	if err != nil {
		conn.Close()
		return err
	}
	typ, payload, err = readFrame(conn)
	if err != nil || typ != frameSnapshot {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("%w: expected snapshot after welcome, got frame %d", ErrFrameCorrupt, typ)
		}
		return err
	}
	snap, _, full, err := decodeSnapshotFrame(payload)
	if err != nil || !full {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("%w: handshake snapshot not full-weight", ErrFrameCorrupt)
		}
		return err
	}
	conn.SetDeadline(time.Time{})

	if !a.initialized {
		// The first handshake runs before the stepping goroutine exists, so
		// these unsynchronized writes are safe; reconnects only read them.
		a.net.SetConfig(welcome.Config)
		// The handshake policy is the starting point; later ones are
		// adopted only at episode boundaries.
		if err := snap.Restore(a.net); err != nil {
			conn.Close()
			return err
		}
		a.initialized = true
		a.id = welcome.ActorID
		a.schedule = rl.Options{
			EpsStart:      welcome.EpsStart,
			EpsEnd:        welcome.EpsEnd,
			EpsDecaySteps: welcome.EpsDecaySteps,
		}
		a.config, a.features = welcome.Config, welcome.Features
		a.frozen = len(a.net.Params()) - len(a.net.TrainableParams())
		a.globalEnv.Store(welcome.EnvSteps)
	} else {
		// Reconnect mid-flight to the learner the run was fixed against: its
		// policy's trainable region replaces anything staged.
		if err := a.sameLearner(welcome, snap); err != nil {
			conn.Close()
			return err
		}
		tail := *snap
		tail.Names, tail.Shapes, tail.Data = snap.Names[a.frozen:], snap.Shapes[a.frozen:], snap.Data[a.frozen:]
		a.pending.Store(&tail)
		if welcome.EnvSteps > a.globalEnv.Load() {
			a.globalEnv.Store(welcome.EnvSteps)
		}
	}

	s := &session{conn: conn, dead: make(chan struct{})}
	a.sess.Store(s)
	a.connects.Add(1)
	go a.readLoop(s)
	return nil
}

// sameLearner checks a reconnect's handshake against what the first one
// fixed for the run: topology, features word and frozen-prefix words.
func (a *actor) sameLearner(w welcomeMsg, snap *nn.Snapshot) error {
	switch {
	case w.Config != a.config:
		return fmt.Errorf("%w: training topology %v, the run was fixed at %v", ErrLearnerChanged, w.Config, a.config)
	case w.Features != a.features:
		return fmt.Errorf("%w: trains on boundary features %v, the run was fixed at %v", ErrLearnerChanged, w.Features, a.features)
	case !a.samePrefix(snap):
		return fmt.Errorf("%w: its frozen-prefix words differ from the first handshake's", ErrLearnerChanged)
	}
	return nil
}

// samePrefix reports whether a full snapshot's frozen-prefix rows hold the
// actor's own frozen words, bit for bit; only a reconnect pays for it.
func (a *actor) samePrefix(snap *nn.Snapshot) bool {
	if len(snap.Data) < a.frozen {
		return false
	}
	for i, p := range a.net.Params()[:a.frozen] {
		if len(snap.Data[i]) != p.W.Len() {
			return false
		}
		for j, v := range p.W.Data() {
			if math.Float32bits(v) != math.Float32bits(snap.Data[i][j]) {
				return false
			}
		}
	}
	return true
}

// readLoop consumes learner frames on one session: heartbeats re-base the
// global step estimate, publishes stage for episode-boundary adoption. Any
// error — timeout, truncation, corruption, a full snapshot outside a
// handshake — kills the session; the reconnect loop takes it from there.
func (a *actor) readLoop(s *session) {
	defer s.kill()
	var lastVersion uint64
	for {
		s.conn.SetReadDeadline(time.Now().Add(a.cfg.HeartbeatTimeout))
		typ, payload, err := readFrame(s.conn)
		if err != nil {
			return
		}
		switch typ {
		case frameHeartbeat:
			if len(payload) == 8 {
				g := int64(binary.BigEndian.Uint64(payload))
				if g > a.globalEnv.Load() {
					a.globalEnv.Store(g)
				}
			}
		case frameSnapshot:
			snap, version, full, err := decodeSnapshotFrame(payload)
			if err != nil || full {
				return // truncated/corrupt policy, or a full one outside a handshake
			}
			if version < lastVersion {
				continue
			}
			lastVersion = version
			a.pending.Store(snap)
		case frameBye:
			a.learnerDone.Store(true)
			return
		default:
			return // the learner has no business sending anything else
		}
	}
}
