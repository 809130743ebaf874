package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dronerl/internal/hw"
	"dronerl/internal/mem"
	"dronerl/internal/metrics"
	"dronerl/internal/nn"
	"dronerl/internal/rl"
	"dronerl/internal/tensor"
)

// LearnerConfig assembles a Learner. Agent, Spec and Listener are required;
// zero values elsewhere select the documented defaults.
type LearnerConfig struct {
	// Agent is the learner's agent (normally built by transfer.Deploy). Its
	// network is the canonical policy; its clock becomes the fleet's global
	// time base.
	Agent *rl.Agent
	// Spec names the served architecture; hellos from other architectures
	// are rejected at handshake. Cfg is the training topology, sent to
	// every actor in its welcome so the fleet freezes the same prefix.
	Spec nn.ArchSpec
	Cfg  nn.Config
	// Listener accepts actor connections (TCP or unix). The learner owns it
	// and closes it when Run returns.
	Listener net.Listener
	// ActorSlots is the number of remote actor shards (default 1). Each
	// connected actor owns one slot; a reconnecting actor reclaims its slot
	// and keeps feeding the same shard.
	ActorSlots int
	// TotalSteps is the run length in fleet env steps: the learner drains
	// ceil(TotalSteps/TrainEvery) train steps, each becoming due as the
	// fleet's transitions arrive, then shuts down cleanly.
	TotalSteps int
	// TrainEvery is the training cadence in env steps and SyncEvery the
	// publish cadence in completed train steps, with rl.Learner's defaults.
	TrainEvery, SyncEvery int
	// HeartbeatEvery is the learner's heartbeat interval per connection
	// (default 250ms); a connection silent for HeartbeatTimeout (default
	// 3s) is declared dead and dropped — its actor can reconnect.
	HeartbeatEvery, HeartbeatTimeout time.Duration
	// IdleTimeout, when nonzero, ends the run once the whole fleet has
	// gone silent — at least one actor has connected before, none is
	// connected now, and no experience has arrived — for this long. It is
	// the recovery path for departures the learner never saw: an actor
	// whose bye was lost with its connection, or one that finished while a
	// crashed learner was down. Zero waits for TotalSteps (or clean byes)
	// forever.
	IdleTimeout time.Duration
	// CheckpointPath, when set, enables resumable checkpoints: one every
	// CheckpointEvery completed train steps (default 32) plus one at clean
	// shutdown, written atomically (write-rename).
	CheckpointPath  string
	CheckpointEvery int
	// Resume, when set, restores a previously saved checkpoint into the
	// agent before serving (rl.Agent.Resume). The clock resuming
	// mid-count means TotalSteps counts only *new* env steps.
	Resume *Checkpoint
	// Ledger, when set, is charged one STT-MRAM write per checkpoint save —
	// the durable-snapshot cost of the recovery primitive.
	Ledger *mem.EnergyLedger
	// OnPublish observes every policy publish (the energy-accounting hook,
	// same contract as rl.OnlineLoop.OnPublish).
	OnPublish func(version uint64)
	// Tracker, when set, accumulates flight statistics from every actor's
	// reported transitions.
	Tracker *metrics.FlightTracker
}

func (c *LearnerConfig) withDefaults() error {
	if c.Agent == nil || c.Listener == nil {
		return errors.New("dist: LearnerConfig needs Agent and Listener")
	}
	if c.Spec.Name == "" {
		return errors.New("dist: LearnerConfig needs the served Spec")
	}
	// The welcome tells every actor what to fly and freeze: a Spec or Cfg
	// other than the agent's would have them freeze the wrong prefix and
	// refuse every tail publish.
	if a := c.Agent; c.Spec.Name != a.Spec().Name || c.Cfg != a.Config() {
		return fmt.Errorf("dist: LearnerConfig serves %s under %v, its agent is a %s under %v",
			c.Spec.Name, c.Cfg, a.Spec().Name, a.Config())
	}
	if c.ActorSlots <= 0 {
		c.ActorSlots = 1
	}
	if c.TotalSteps <= 0 {
		return errors.New("dist: LearnerConfig.TotalSteps must be positive")
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * time.Second
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 32
	}
	return nil
}

// LearnerStats summarizes one learner run.
type LearnerStats struct {
	// EnvSteps and TrainSteps count fleet environment steps received and
	// weight updates completed during this run (excluding any checkpointed
	// history the run resumed from).
	EnvSteps, TrainSteps int
	// Publishes counts policy broadcasts, Checkpoints durable saves.
	Publishes, Checkpoints int
	// Connects, Disconnects and Resumes count actor sessions: every
	// accepted handshake, every dropped connection, and how many handshakes
	// reclaimed an existing shard slot.
	Connects, Disconnects, Resumes int
	// DropReasons breaks the abnormal session ends down by cause.
	DropReasons DropReasons
}

// DropReasons counts sessions the learner dropped for a fault, one class per
// session: the link went silent past HeartbeatTimeout, died mid-frame, sent
// a frame that fails its CRC or structure, or delivered well-framed
// experience the served network cannot train on.
type DropReasons struct {
	Timeout, Truncated, Corrupt, RejectedExperience int
}

// Learner is the distributed pipeline's central trainer: it accepts actor
// connections, demultiplexes their experience streams into per-actor replay
// shards (the same deterministic interleave the in-process pipeline
// samples), trains them with the in-process fleet's rl.Learner, broadcasts
// its publishes, and checkpoints durably. A dead actor costs nothing but its
// stream: training continues on the live shards, and the slot waits for a
// reconnect.
type Learner struct {
	cfg    LearnerConfig
	shards *rl.ReplayShards
	learn  rl.Learner

	// netMu keeps the welcome's and the checkpoint's reads of the agent's
	// networks off the weights a TrainStep is writing.
	netMu sync.Mutex
	// checkpoints counts this run's saves (learner goroutine only).
	checkpoints int

	// connMu guards the session table; slots maps actor ID → shard index;
	// departed records actors that sent a clean bye.
	connMu   sync.Mutex
	conns    map[uint64]*learnerConn
	slots    map[uint64]int
	departed map[uint64]bool
	nextID   uint64

	// fleetDone flips when every actor slot has departed cleanly: no more
	// experience is coming, so the learner finishes with what arrived
	// instead of waiting forever for env steps lost with a dropped frame
	// (delivery is at-most-once by design).
	fleetDone atomic.Bool
	// announced flips when the completed run says goodbye: a session that
	// ends after that is an actor hanging up on the bye, mid-frame or not,
	// and is not counted as a link fault.
	announced atomic.Bool

	connects    atomic.Int64
	disconnects atomic.Int64
	resumes     atomic.Int64
	// One counter per DropReasons field.
	dropTimeout, dropTruncated, dropCorrupt, dropRejected atomic.Int64

	// What every incoming transition must look like. wantFeatures: TrainStep
	// reads boundary features, so actors ship them instead of frames, and
	// every row must carry them and no frame; without it, its frames and no
	// feature. rowShape is the shape of what it reads: the served
	// observation, or the trainable tail's input. actions is the Q row.
	wantFeatures bool
	rowShape     []int
	actions      int
}

// learnerConn is one live actor session.
type learnerConn struct {
	id     uint64
	shard  int
	conn   net.Conn
	outbox chan []byte // pre-encoded frames; writer goroutine drains
	closed chan struct{}
	once   sync.Once
	// fresh marks a session whose slot was reserved in its own handshake;
	// acked flips once the actor has sent any frame back. A fresh session
	// that dies un-acked releases the slot on drop: its actor never learned a
	// minted ID, or refused this learner (ErrLearnerChanged) for good.
	fresh bool
	acked atomic.Bool
}

func (lc *learnerConn) close() {
	lc.once.Do(func() {
		close(lc.closed)
		lc.conn.Close()
	})
}

// NewLearner validates cfg, applies a Resume checkpoint when present, and
// returns a learner ready to Run.
func NewLearner(cfg LearnerConfig) (*Learner, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	l := &Learner{
		cfg:      cfg,
		shards:   rl.NewReplayShards(cfg.ActorSlots, cfg.Agent.Options().ReplayCapacity),
		conns:    make(map[uint64]*learnerConn),
		slots:    make(map[uint64]int),
		departed: make(map[uint64]bool),
		rowShape: []int{cfg.Spec.InputC, cfg.Spec.InputH, cfg.Spec.InputW},
		actions:  cfg.Spec.FCs[len(cfg.Spec.FCs)-1].Out,
	}
	l.learn = rl.Learner{
		Agent: cfg.Agent, Replay: l.shards, Board: nn.NewPolicyBoard(), Tracker: cfg.Tracker,
		TrainEvery: cfg.TrainEvery, SyncEvery: cfg.SyncEvery, Lock: &l.netMu,
		OnPublish: l.publish, AfterUpdate: l.afterUpdate, Stop: l.fleetDone.Load,
	}
	// A train backend (quant-train) runs its own prefix on stacked frames,
	// so only the float tail path can train on features alone.
	if net := cfg.Agent.Net; net.TrainFrom() > 0 && cfg.Agent.Options().TrainBackend == "" {
		if d, ok := net.Layers[net.TrainFrom()].(*nn.Dense); ok {
			l.wantFeatures, l.rowShape = true, []int{d.In}
		}
	}
	if cfg.Resume != nil {
		if err := cfg.Agent.Resume(cfg.Resume.Image, l.shards); err != nil {
			return nil, fmt.Errorf("dist: resuming checkpoint: %w", err)
		}
		for id, shard := range cfg.Resume.Slots {
			if shard >= 0 && shard < cfg.ActorSlots {
				l.slots[id] = shard
			}
		}
		l.nextID = cfg.Resume.NextActorID
	}
	return l, nil
}

// Run serves the fleet until the configured TotalSteps of experience have
// arrived and every due train step has been drained, or until ctx is
// cancelled (reported as ctx.Err(), the crash path — no final checkpoint is
// written, exactly like a real crash; the periodic checkpoints are the
// recovery points). On the clean path a final checkpoint is saved before
// returning.
func (l *Learner) Run(ctx context.Context) (LearnerStats, error) {
	clock := l.cfg.Agent.Clock()
	envStart, trainStart := clock.EnvSteps(), clock.TrainSteps()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Accept loop: handshake every connection on its own goroutine so a
	// slow (or chaotic) client cannot stall admission of the others.
	var acceptWG sync.WaitGroup
	acceptWG.Add(1)
	go func() {
		defer acceptWG.Done()
		for {
			conn, err := l.cfg.Listener.Accept()
			if err != nil {
				return // listener closed: shutdown
			}
			acceptWG.Add(1)
			go func() {
				defer acceptWG.Done()
				l.handshake(runCtx, conn)
			}()
		}
	}()

	// Idle watchdog: once armed by the first connection, a fleet that is
	// entirely gone and silent for IdleTimeout ends the run gracefully.
	if l.cfg.IdleTimeout > 0 {
		go l.watchIdle(runCtx, clock)
	}

	// Training is rl.Learner's: a learner that lags the fleet drains the
	// backlog, and one whose whole fleet departed cleanly (fleetDone) ends
	// with what arrived — delivery is at-most-once, so steps lost in flight
	// never come.
	publishes, err := l.learn.Run(runCtx, envStart, l.cfg.TotalSteps)
	if err == nil && l.cfg.CheckpointPath != "" {
		// Clean completion: leave a final resume point behind.
		err = l.checkpoint()
	}
	if err == nil {
		l.announceDone()
	}
	cancel()
	l.shutdown(&acceptWG)
	return LearnerStats{
		EnvSteps:    int(clock.EnvSteps() - envStart),
		TrainSteps:  int(clock.TrainSteps() - trainStart),
		Publishes:   publishes,
		Checkpoints: l.checkpoints,
		Connects:    int(l.connects.Load()),
		Disconnects: int(l.disconnects.Load()),
		Resumes:     int(l.resumes.Load()),
		DropReasons: DropReasons{
			Timeout:            int(l.dropTimeout.Load()),
			Truncated:          int(l.dropTruncated.Load()),
			Corrupt:            int(l.dropCorrupt.Load()),
			RejectedExperience: int(l.dropRejected.Load()),
		},
	}, err
}

// watchIdle flips fleetDone when the fleet has been fully absent and silent
// for IdleTimeout. It never fires before the first actor ever connects or
// while any session is live.
func (l *Learner) watchIdle(ctx context.Context, clock *rl.Clock) {
	tick := l.cfg.IdleTimeout / 8
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	lastEnv := clock.EnvSteps()
	var idleSince time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		env := clock.EnvSteps()
		l.connMu.Lock()
		live := len(l.conns)
		armed := len(l.slots) > 0 || l.connects.Load() > 0 // a released slot still counts
		l.connMu.Unlock()
		if !armed || live > 0 || env != lastEnv {
			lastEnv = env
			idleSince = time.Time{}
			continue
		}
		if idleSince.IsZero() {
			idleSince = time.Now()
			continue
		}
		if time.Since(idleSince) >= l.cfg.IdleTimeout {
			l.fleetDone.Store(true)
			clock.Wake()
			return
		}
	}
}

// announceDone tells every live actor the run completed, best effort: the
// sessions close right after, and an actor that knows why neither redials a
// learner that is gone nor waits out a reconnect window to say goodbye to
// it. A crashed learner announces nothing, and its actors keep redialing.
// It lingers until the actors hang up on the bye, at most one heartbeat
// interval: closing under an actor's in-flight writes resets the connection,
// and a reset discards a bye the actor has not read yet.
func (l *Learner) announceDone() {
	l.announced.Store(true)
	l.connMu.Lock()
	live := make([]*learnerConn, 0, len(l.conns))
	for _, lc := range l.conns {
		live = append(live, lc)
	}
	l.connMu.Unlock()
	for _, lc := range live {
		lc.conn.SetWriteDeadline(time.Now().Add(l.cfg.HeartbeatEvery))
		_ = writeFrame(lc.conn, frameBye, nil) // the close that follows says the same, less precisely
	}
	linger := time.NewTimer(l.cfg.HeartbeatEvery)
	defer linger.Stop()
	for _, lc := range live {
		select {
		case <-lc.closed:
		case <-linger.C:
			return
		}
	}
}

// shutdown closes the listener and every live session, then waits for the
// connection goroutines.
func (l *Learner) shutdown(acceptWG *sync.WaitGroup) {
	l.cfg.Listener.Close()
	l.connMu.Lock()
	for _, lc := range l.conns {
		lc.close()
	}
	l.connMu.Unlock()
	acceptWG.Wait()
}

// publish reports a policy the training loop put on the board and
// broadcasts it to every live actor.
func (l *Learner) publish(v uint64) {
	if l.cfg.OnPublish != nil {
		l.cfg.OnPublish(v)
	}
	snap, version := l.learn.Board.Snapshot()
	payload, err := encodeSnapshotFrame(snap, version, false)
	if err != nil {
		return // cannot happen with a freshly taken snapshot
	}
	frame, err := frameBytes(frameSnapshot, payload)
	if err != nil {
		return // a snapshot past maxFrame: nothing to send
	}
	l.connMu.Lock()
	defer l.connMu.Unlock()
	for _, lc := range l.conns {
		select {
		case lc.outbox <- frame:
		default:
			// Outbox full: the actor is far behind; it will catch up on the
			// next publish (versions are monotonic, skips are harmless).
		}
	}
}

// afterUpdate saves a checkpoint every CheckpointEvery completed updates.
func (l *Learner) afterUpdate(trained int) error {
	if l.cfg.CheckpointPath == "" || trained%l.cfg.CheckpointEvery != 0 {
		return nil
	}
	return l.checkpoint()
}

// checkpoint saves a durable resume point and charges the NVM write.
func (l *Learner) checkpoint() error {
	l.netMu.Lock()
	cp := &Checkpoint{Image: l.cfg.Agent.Checkpoint(l.shards)}
	l.netMu.Unlock()
	l.connMu.Lock()
	cp.Slots, cp.NextActorID = maps.Clone(l.slots), l.nextID
	l.connMu.Unlock()
	size, err := cp.Save(l.cfg.CheckpointPath)
	if err != nil {
		return err
	}
	l.checkpoints++
	if l.cfg.Ledger != nil {
		t := hw.CheckpointTraffic(size)
		l.cfg.Ledger.Record(t.Device, t.Kind, t.Bits)
	}
	return nil
}

// handshake runs one connection's hello/welcome exchange and, on success,
// its session loops. It returns when the session ends.
func (l *Learner) handshake(ctx context.Context, conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(l.cfg.HeartbeatTimeout))
	typ, payload, err := readFrame(conn)
	if err != nil || typ != frameHello {
		conn.Close()
		return
	}
	hello, err := decodeHello(payload)
	if err != nil || (hello.Arch != "" && hello.Arch != l.cfg.Spec.Name) {
		conn.Close()
		return
	}

	lc, resumed, err := l.admit(hello.ActorID, conn)
	if err != nil {
		conn.Close()
		return
	}
	l.connects.Add(1)
	if resumed {
		l.resumes.Add(1)
	}

	// Welcome: slot, global clock, exploration schedule — then the full
	// current policy, taken under the training lock so it is never torn.
	opts := l.cfg.Agent.Options()
	welcome := appendWelcome(nil, welcomeMsg{
		ActorID:       lc.id,
		EnvSteps:      l.cfg.Agent.Clock().EnvSteps(),
		EpsStart:      opts.EpsStart,
		EpsEnd:        opts.EpsEnd,
		EpsDecaySteps: opts.EpsDecaySteps,
		Config:        l.cfg.Cfg,
		Resumed:       resumed,
		Features:      l.wantFeatures,
	})
	l.netMu.Lock()
	full := nn.TakeSnapshot(l.cfg.Agent.Net, l.cfg.Spec.Name)
	version := l.learn.Board.Version()
	l.netMu.Unlock()
	snapPayload, err := encodeSnapshotFrame(full, version, true)
	if err != nil {
		l.drop(lc)
		return
	}
	if err := writeFrame(conn, frameWelcome, welcome); err != nil {
		l.drop(lc)
		return
	}
	if err := writeFrame(conn, frameSnapshot, snapPayload); err != nil {
		l.drop(lc)
		return
	}

	// Writer: heartbeats (carrying the global env-step count) and broadcast
	// snapshots from the outbox.
	go func() {
		ticker := time.NewTicker(l.cfg.HeartbeatEvery)
		defer ticker.Stop()
		for {
			select {
			case <-lc.closed:
				return
			case frame := <-lc.outbox:
				if _, err := conn.Write(frame); err != nil {
					l.drop(lc)
					return
				}
			case <-ticker.C:
				var hb [8]byte
				binary.BigEndian.PutUint64(hb[:], uint64(l.cfg.Agent.Clock().EnvSteps()))
				if err := writeFrame(conn, frameHeartbeat, hb[:]); err != nil {
					l.drop(lc)
					return
				}
			}
		}
	}()

	l.readLoop(ctx, lc)
}

// admit assigns (or restores) the shard slot for a session.
func (l *Learner) admit(actorID uint64, conn net.Conn) (*learnerConn, bool, error) {
	l.connMu.Lock()
	defer l.connMu.Unlock()
	resumed := false
	fresh := false
	var shard int
	if actorID != 0 {
		s, known := l.slots[actorID]
		if !known {
			// An ID this learner never issued: either the last checkpoint
			// predates the slot assignment, or the actor outlived a
			// checkpoint-less restart. Re-admit it into a fresh slot if one
			// is free — its shard continuity is gone, its experience is not.
			if len(l.slots) >= l.cfg.ActorSlots {
				return nil, false, errors.New("dist: actor slots exhausted")
			}
			s = l.freeShard()
			l.slots[actorID] = s
			if actorID > l.nextID {
				l.nextID = actorID
			}
			fresh = true
		}
		if old, live := l.conns[actorID]; live {
			// The actor reconnected before we noticed the old conn die;
			// the new session supersedes it.
			old.close()
		}
		shard, resumed = s, known
	} else {
		if len(l.slots) >= l.cfg.ActorSlots {
			return nil, false, errors.New("dist: actor slots exhausted")
		}
		l.nextID++
		actorID = l.nextID
		shard = l.freeShard()
		l.slots[actorID] = shard
		fresh = true
	}
	lc := &learnerConn{
		id:     actorID,
		shard:  shard,
		conn:   conn,
		outbox: make(chan []byte, 4),
		closed: make(chan struct{}),
		fresh:  fresh,
	}
	l.conns[actorID] = lc
	return lc, resumed, nil
}

// freeShard picks the lowest shard index no current slot occupies. Slots
// released by drop leave holes, so len(l.slots) alone could alias a live
// actor's shard. Caller holds connMu.
func (l *Learner) freeShard() int {
	used := make([]bool, l.cfg.ActorSlots)
	for _, s := range l.slots {
		if s >= 0 && s < len(used) {
			used[s] = true
		}
	}
	for i, u := range used {
		if !u {
			return i
		}
	}
	return len(l.slots)
}

// drop ends a session and frees its connection. The slot normally stays
// reserved for the actor's reconnect — except for a fresh session that died
// before the actor sent anything back: keeping that reservation would leak
// the slot on every failed handshake until the fleet is locked out.
func (l *Learner) drop(lc *learnerConn) {
	l.connMu.Lock()
	if l.conns[lc.id] == lc {
		delete(l.conns, lc.id)
		l.disconnects.Add(1)
		if lc.fresh && !lc.acked.Load() {
			delete(l.slots, lc.id)
		}
	}
	l.connMu.Unlock()
	lc.close()
}

// readLoop demultiplexes one actor's stream: transitions into its shard
// (ticking the fleet clock), heartbeats into liveness, bye into a clean
// end. Any read error — timeout, truncation, corruption — drops the
// session; the learner keeps training on whatever the live shards hold.
func (l *Learner) readLoop(ctx context.Context, lc *learnerConn) {
	defer l.drop(lc)
	for {
		if ctx.Err() != nil {
			return
		}
		lc.conn.SetReadDeadline(time.Now().Add(l.cfg.HeartbeatTimeout))
		typ, payload, err := readFrame(lc.conn)
		if err != nil {
			if err != io.EOF && ctx.Err() == nil && !l.announced.Load() && !errors.Is(err, net.ErrClosed) {
				// Dead or corrupt link: drop the session. ErrFrameCorrupt
				// here means the stream lost sync — the conn cannot be
				// trusted frame-aligned anymore, so it must die too; the
				// actor's buffered transitions survive on its side.
				l.disconnectReason(err)
			}
			return
		}
		lc.acked.Store(true)
		switch typ {
		case frameTransitions:
			if err := l.receive(lc.shard, payload); err != nil {
				// Nothing of a bad frame enters the shard, and the session
				// that sent it is not to be trusted with the next one.
				l.disconnectReason(err)
				return
			}
		case frameHeartbeat:
			// Liveness only; the deadline reset above is the effect.
		case frameBye:
			l.connMu.Lock()
			l.departed[lc.id] = true
			done := len(l.departed) >= l.cfg.ActorSlots
			l.connMu.Unlock()
			if done {
				l.fleetDone.Store(true)
				l.cfg.Agent.Clock().Wake()
			}
			return
		default:
			// An actor has no business sending learner-side frames.
			l.disconnectReason(fmt.Errorf("%w: unexpected frame %d from actor", ErrFrameCorrupt, typ))
			return
		}
	}
}

// receive admits one frameTransitions payload into shard: decoded, validated
// (all of it or none of it enters), then pushed as it arrived, each
// transition ticking the fleet clock and the tracker.
func (l *Learner) receive(shard int, payload []byte) error {
	batch, err := decodeExperience(payload)
	if err == nil {
		err = l.validate(batch)
	}
	if err != nil {
		return err
	}
	clock := l.cfg.Agent.Clock()
	for _, e := range batch {
		l.shards.PushTo(shard, e.T)
		clock.TickEnv()
		l.learn.Track(e.T.Reward, e.T.Done, e.Dist)
	}
	return nil
}

// errRejected marks well-framed experience that does not fit the served
// network. It is an ErrFrameCorrupt — the session is dropped the same way —
// with its own count in DropReasons.
var errRejected = fmt.Errorf("%w: experience rejected", ErrFrameCorrupt)

// validate checks a decoded batch against what TrainStep will assume of it:
// each row carrying what this learner reads and nothing else — the actor
// decided which when it flew the step, and the learner recomputes neither
// from the other — in the shape it reads, actions inside the Q row, and
// every value finite. The CRC vouches for the bytes, not for the peer's
// arithmetic; any of these let through would panic the training loop or
// poison the weights.
func (l *Learner) validate(batch []Experience) error {
	for i := range batch {
		t := &batch[i].T
		rows, other := [2]*tensor.Tensor{t.State, t.Next}, [2]*tensor.Tensor{t.Feat, t.NextFeat}
		if l.wantFeatures {
			rows, other = other, rows
		}
		if rows[0] == nil || rows[1] == nil && !t.Done || other != [2]*tensor.Tensor{} {
			return fmt.Errorf("%w: transition carries frames %v/%v and boundary features %v/%v, and this learner trains on features %v",
				errRejected, t.State != nil, t.Next != nil, t.Feat != nil, t.NextFeat != nil, l.wantFeatures)
		}
		if t.Action >= l.actions {
			return fmt.Errorf("%w: action %d of %d", errRejected, t.Action, l.actions)
		}
		if d := batch[i].Dist; math.IsNaN(t.Reward) || math.IsInf(t.Reward, 0) || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("%w: reward %v, flight distance %v", errRejected, t.Reward, d)
		}
		for _, row := range rows {
			if row == nil {
				continue
			}
			if !slices.Equal(row.Shape(), l.rowShape) {
				return fmt.Errorf("%w: row of shape %v, this learner reads %v", errRejected, row.Shape(), l.rowShape)
			}
			for _, v := range row.Data() {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					return fmt.Errorf("%w: non-finite value %v in a frame or boundary feature", errRejected, v)
				}
			}
		}
	}
	return nil
}

// disconnectReason counts an abnormal session end under its class. A read
// deadline surfaces from readFrame as a truncation, so the timeout test
// comes first.
func (l *Learner) disconnectReason(err error) {
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		l.dropTimeout.Add(1)
	case errors.Is(err, errRejected):
		l.dropRejected.Add(1)
	case errors.Is(err, ErrFrameCorrupt):
		l.dropCorrupt.Add(1)
	default:
		l.dropTruncated.Add(1)
	}
}
