// Package chaos injects the failures internal/dist claims to survive. It
// wraps connections (on either side of the wire) with fault injectors that
// kill links after a random number of bytes — truncating whatever frame is
// in flight — and delay individual reads and writes, and it supervises
// whole components (actors) through randomized kill/restart cycles clocked
// by the bytes they have written, not by the wall. The dist package's
// fault-injection tests run entirely on these
// primitives, under the race detector.
//
// Faults are seeded and therefore reproducible: the same Config and seed
// produce the same fault schedule, so a failing chaos test replays.
package chaos

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config describes the fault distribution for wrapped connections.
type Config struct {
	// Seed drives the fault schedule.
	Seed int64
	// MinConnBytes and MaxConnBytes bound each connection's byte budget,
	// drawn uniformly per connection and spent by both reads and writes.
	// Once spent, the connection closes abruptly — mid-frame whenever a
	// frame happens to be in flight, which is the interesting case. Zero
	// MaxConnBytes disables budgets (connections live forever).
	MinConnBytes, MaxConnBytes int64
	// MaxDelay, when nonzero, sleeps each read and write a uniform random
	// duration up to this bound, simulating a congested or lossy link.
	MaxDelay time.Duration
}

// counterSeed hands every wrapped connection a distinct deterministic seed.
type counterSeed struct {
	mu   sync.Mutex
	seed int64
	n    int64
}

func (c *counterSeed) next() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.seed + 0x9e37*c.n
}

// Wrap applies the fault config to one connection.
func (cfg Config) wrap(conn net.Conn, seed int64) net.Conn {
	rng := rand.New(rand.NewSource(seed))
	fc := &faultConn{Conn: conn, cfg: cfg, rng: rng, budget: -1}
	if cfg.MaxConnBytes > 0 {
		span := cfg.MaxConnBytes - cfg.MinConnBytes
		fc.budget = cfg.MinConnBytes
		if span > 0 {
			fc.budget += rng.Int63n(span + 1)
		}
	}
	return fc
}

// WrapDial makes a dialer whose connections carry injected faults; it plugs
// straight into dist.ActorConfig.Dial.
func WrapDial(dial Dial, cfg Config) Dial {
	seeds := &counterSeed{seed: cfg.Seed}
	return func(ctx context.Context) (net.Conn, error) {
		conn, err := dial(ctx)
		if err != nil {
			return nil, err
		}
		return cfg.wrap(conn, seeds.next()), nil
	}
}

// Dialer makes a fault-injecting dialer for a plain network address.
func Dialer(network, addr string, cfg Config) Dial {
	return WrapDial(func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}, cfg)
}

// WrapListener makes a listener whose accepted connections carry injected
// faults — the learner-side counterpart of WrapDial.
func WrapListener(ln net.Listener, cfg Config) net.Listener {
	return &faultListener{Listener: ln, cfg: cfg, seeds: &counterSeed{seed: cfg.Seed}}
}

type faultListener struct {
	net.Listener
	cfg   Config
	seeds *counterSeed
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.cfg.wrap(conn, l.seeds.next()), nil
}

// faultConn spends a byte budget across reads and writes and dies abruptly
// when it runs out. Reads and writes run on different goroutines, so the
// budget and rng sit behind a mutex.
type faultConn struct {
	net.Conn
	cfg    Config
	mu     sync.Mutex
	rng    *rand.Rand
	budget int64 // -1: unlimited
}

// reserve caps one op at the remaining budget and draws its injected delay
// while the rng is locked. The reservation is provisional: commit refunds
// whatever the op did not actually move, so a short TCP read does not burn
// budget for bytes that never crossed the wire.
func (c *faultConn) reserve(n int) (allowed int, delay time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.MaxDelay > 0 {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.MaxDelay) + 1))
	}
	if c.budget < 0 {
		return n, delay
	}
	if int64(n) > c.budget {
		n = int(c.budget)
	}
	c.budget -= int64(n)
	return n, delay
}

// commit refunds the unused part of a reservation and reports whether the
// budget is now exactly spent — the moment the connection must die.
func (c *faultConn) commit(reserved, used int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget < 0 {
		return false
	}
	c.budget += int64(reserved - used)
	return c.budget == 0
}

func (c *faultConn) Read(p []byte) (int, error) {
	allowed, delay := c.reserve(len(p))
	if delay > 0 {
		time.Sleep(delay)
	}
	if allowed == 0 && len(p) > 0 {
		// Budget already exhausted: the link is dead.
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Read(p[:allowed])
	if c.commit(allowed, n) {
		c.Conn.Close()
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	allowed, delay := c.reserve(len(p))
	if delay > 0 {
		time.Sleep(delay)
	}
	if allowed == len(p) {
		n, err := c.Conn.Write(p)
		if c.commit(allowed, n) {
			c.Conn.Close()
		}
		return n, err
	}
	// Truncate: deliver only the part of the caller's buffer the budget
	// covers, then kill the link — the peer sees a frame cut off
	// mid-payload.
	n, err := c.Conn.Write(p[:allowed])
	c.commit(allowed, n)
	c.Conn.Close()
	if err == nil {
		err = net.ErrClosed
	}
	return n, err
}

// Dial is the dialer shape dist.ActorConfig.Dial takes.
type Dial = func(ctx context.Context) (net.Conn, error)

// Kill records one supervised kill: the byte budget the round drew, and how
// many bytes the round had written at the moment its context was cancelled —
// the budget plus whatever remained of the write that crossed it.
type Kill struct{ Budget, Written int64 }

// Supervise runs task through kills randomized kill/restart cycles, then once
// more uninterrupted, and returns the kills that fired and that final run's
// error. The clock is progress, not time: each killed round hands the task a
// dialer that counts the bytes written through its connections, and cancels
// the round's context once a uniform random budget in [minBytes, maxBytes]
// has been written — the currency the byte-budget links already use — so a
// faster program or a slower box moves the kill in wall-clock time and not in
// the mission. A round that finishes before its kill ends the chaos early
// (the task is done). The task must be resumable across invocations — an
// actor reclaiming its slot — and must dial only through the dialer it is
// handed.
func Supervise(ctx context.Context, kills int, minBytes, maxBytes, seed int64, dial Dial, task func(context.Context, Dial) error) ([]Kill, error) {
	rng := rand.New(rand.NewSource(seed))
	var fired []Kill
	for i := 0; i < kills; i++ {
		budget := minBytes
		if span := maxBytes - minBytes; span > 0 {
			budget += rng.Int63n(span + 1)
		}
		runCtx, cancel := context.WithCancel(ctx)
		m := &meter{budget: budget, cancel: cancel}
		err := task(runCtx, func(ctx context.Context) (net.Conn, error) {
			conn, err := dial(ctx)
			if err != nil {
				return nil, err
			}
			return meteredConn{conn, m}, nil
		})
		cancel()
		if err == nil {
			return fired, nil
		}
		if ctx.Err() != nil {
			return fired, ctx.Err()
		}
		if at := m.killedAt.Load(); at > 0 {
			fired = append(fired, Kill{Budget: budget, Written: at})
		}
	}
	return fired, task(ctx, dial)
}

// meter is one round's byte clock, shared by every connection the round
// dials (writes and redials run on different goroutines).
type meter struct {
	budget   int64
	cancel   context.CancelFunc
	written  atomic.Int64
	killedAt atomic.Int64
}

type meteredConn struct {
	net.Conn
	m *meter
}

func (c meteredConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if now := c.m.written.Add(int64(n)); now >= c.m.budget && now-int64(n) < c.m.budget {
		c.m.killedAt.Store(now)
		c.m.cancel()
	}
	return n, err
}
