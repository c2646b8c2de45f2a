// Package faultnet injects deterministic transport faults into net.Conn
// traffic so resilience paths — reconnect, resume, degradation — can be
// exercised reproducibly (DESIGN.md §11).
//
// Every fault decision is drawn from seed-derived internal/randx streams,
// one per connection direction, so a run's complete fault schedule is a
// pure function of (seed, connection identity, operation index): the
// same chaos test fails the same way every time. The package never reads
// the wall clock or math/rand.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"etrain/internal/randx"
)

// Config sets the per-operation fault rates. All rates are probabilities
// in [0, 1]; the zero Config injects nothing and Wrap returns conns
// untouched.
type Config struct {
	// Seed roots every fault stream; connections derive their own
	// substreams from it.
	Seed int64
	// Drop is the per-operation probability that the connection silently
	// dies: the op fails and the underlying conn closes, so the peer
	// observes EOF.
	Drop float64
	// Reset is the per-operation probability of an abrupt reset: the op
	// fails with ErrReset and the underlying conn closes.
	Reset float64
	// Truncate is the per-write probability that only a prefix of the
	// buffer is delivered before the connection resets — the cut lands
	// mid-frame, which is what exercises wire-level truncation handling.
	Truncate float64
	// ConnectFail is the probability a Dialer attempt fails outright.
	ConnectFail float64
	// MaxChunk, when positive, fragments reads and writes into chunks of
	// at most this many bytes, surfacing short-read/short-write bugs.
	MaxChunk int
	// ReadFaultsOnly confines Drop/Reset/Truncate to the read direction:
	// writes pass through untouched (Truncate then tears read buffers
	// instead of write buffers). A single-goroutine reader makes its own
	// operation sequence — and therefore the whole fault schedule —
	// independent of how its peer's writes interleave, which is what
	// lets a chaos run pin not just outcomes but healing counters
	// byte-for-byte at any worker count (DESIGN.md §12).
	ReadFaultsOnly bool
}

// Stats counts injected faults across all connections of an Injector.
type Stats struct {
	Wrapped     uint64 // connections wrapped
	Drops       uint64 // silent connection kills
	Resets      uint64 // ErrReset failures
	Truncations uint64 // partial writes delivered before a reset
	DialFails   uint64 // dial attempts refused
}

// ErrReset is the connection-reset failure faultnet injects. It
// implements net.Error (non-timeout), mirroring how a kernel surfaces
// ECONNRESET.
var ErrReset = &resetError{}

type resetError struct{}

func (*resetError) Error() string   { return "faultnet: connection reset" }
func (*resetError) Timeout() bool   { return false }
func (*resetError) Temporary() bool { return false }

// Injector derives per-connection fault streams from one seed and
// applies the configured fault model to every conn it wraps.
type Injector struct {
	cfg Config

	wrapped     atomic.Uint64
	drops       atomic.Uint64
	resets      atomic.Uint64
	truncations atomic.Uint64
	dialFails   atomic.Uint64
}

// New validates cfg and builds an injector.
func New(cfg Config) (*Injector, error) {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"Drop", cfg.Drop},
		{"Reset", cfg.Reset},
		{"Truncate", cfg.Truncate},
		{"ConnectFail", cfg.ConnectFail},
	} {
		if r.v < 0 || r.v > 1 {
			return nil, fmt.Errorf("faultnet: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if cfg.MaxChunk < 0 {
		return nil, fmt.Errorf("faultnet: MaxChunk %d negative", cfg.MaxChunk)
	}
	return &Injector{cfg: cfg}, nil
}

// Stats snapshots the injector's fault counts.
func (in *Injector) Stats() Stats {
	return Stats{
		Wrapped:     in.wrapped.Load(),
		Drops:       in.drops.Load(),
		Resets:      in.resets.Load(),
		Truncations: in.truncations.Load(),
		DialFails:   in.dialFails.Load(),
	}
}

// active reports whether wrapping changes behavior at all.
func (in *Injector) active() bool {
	c := in.cfg
	return c.Drop > 0 || c.Reset > 0 || c.Truncate > 0 || c.MaxChunk > 0
}

// Wrap returns conn with the injector's fault model applied. The parts
// identify the connection (device index, attempt number, ...): the same
// (seed, parts) always yields the same per-direction fault schedule.
// With no faults configured, conn is returned unwrapped.
func (in *Injector) Wrap(conn net.Conn, parts ...uint64) net.Conn {
	if !in.active() {
		return conn
	}
	in.wrapped.Add(1)
	return &faultConn{
		Conn: conn,
		in:   in,
		read: &faultStream{in: in, rng: randx.New(randx.Derive(in.cfg.Seed, append(append([]uint64{}, parts...), 0)...))},
		wrte: &faultStream{in: in, rng: randx.New(randx.Derive(in.cfg.Seed, append(append([]uint64{}, parts...), 1)...))},
	}
}

// Dialer wraps dial with connect failures and fault-wrapped conns. Each
// attempt gets a distinct identity (parts..., attempt), so retries see
// fresh fault schedules deterministically.
func (in *Injector) Dialer(dial func() (net.Conn, error), parts ...uint64) func() (net.Conn, error) {
	attempts := new(atomic.Uint64)
	rng := randx.New(randx.Derive(in.cfg.Seed, append(append([]uint64{}, parts...), 2)...))
	var mu sync.Mutex
	return func() (net.Conn, error) {
		attempt := attempts.Add(1)
		if in.cfg.ConnectFail > 0 {
			mu.Lock()
			fail := rng.Float64() < in.cfg.ConnectFail
			mu.Unlock()
			if fail {
				in.dialFails.Add(1)
				return nil, fmt.Errorf("faultnet: dial refused (attempt %d): %w", attempt, ErrReset)
			}
		}
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		return in.Wrap(conn, append(append([]uint64{}, parts...), attempt)...), nil
	}
}

// faultStream is one direction's fault schedule: a private randx stream
// consumed one draw per operation, serialized by its own mutex so the
// schedule is a deterministic sequence even when callers race.
type faultStream struct {
	in  *Injector
	mu  sync.Mutex
	rng *randx.Source
}

// verdict is one operation's drawn fate.
type verdict struct {
	drop     bool
	reset    bool
	truncate bool
	chunk    int
}

// next draws the next operation's verdict. Draw order is fixed — fate,
// then the truncation cut — so schedules replay identically.
func (fs *faultStream) next(forWrite bool, n int) verdict {
	cfg := fs.in.cfg
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var v verdict
	f := fs.rng.Float64()
	truncable := forWrite != cfg.ReadFaultsOnly // truncation tears the faulted direction
	switch {
	case f < cfg.Drop:
		v.drop = true
	case f < cfg.Drop+cfg.Reset:
		v.reset = true
	case truncable && f < cfg.Drop+cfg.Reset+cfg.Truncate:
		v.truncate = true
	}
	v.chunk = n
	if cfg.MaxChunk > 0 && v.chunk > cfg.MaxChunk {
		v.chunk = cfg.MaxChunk
	}
	if v.truncate && v.chunk > 1 {
		// Deliver a strict prefix of the chunk, at least one byte, so the
		// peer sees a torn frame rather than a clean boundary.
		v.chunk = 1 + fs.rng.Intn(v.chunk-1)
	}
	return v
}

// faultConn applies a per-direction fault schedule to an underlying
// conn. Fault kills close the underlying conn so the peer observes the
// failure too, mirroring a real broken transport.
type faultConn struct {
	net.Conn
	in     *Injector
	read   *faultStream
	wrte   *faultStream
	killed atomic.Bool
}

// kill closes the underlying conn once.
func (fc *faultConn) kill() {
	if fc.killed.CompareAndSwap(false, true) {
		fc.Conn.Close()
	}
}

func (fc *faultConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return fc.Conn.Read(p)
	}
	v := fc.read.next(false, len(p))
	switch {
	case v.drop:
		fc.in.drops.Add(1)
		fc.kill()
		return 0, net.ErrClosed
	case v.reset:
		fc.in.resets.Add(1)
		fc.kill()
		return 0, ErrReset
	case v.truncate:
		// Deliver a prefix of this read, then die: the caller's decoder
		// sees a torn frame followed by a dead transport.
		fc.in.truncations.Add(1)
		n, _ := fc.Conn.Read(p[:v.chunk])
		fc.kill()
		return n, ErrReset
	}
	return fc.Conn.Read(p[:v.chunk])
}

func (fc *faultConn) Write(p []byte) (int, error) {
	if len(p) == 0 || fc.in.cfg.ReadFaultsOnly {
		return fc.Conn.Write(p)
	}
	written := 0
	for written < len(p) {
		v := fc.wrte.next(true, len(p)-written)
		switch {
		case v.drop:
			fc.in.drops.Add(1)
			fc.kill()
			return written, net.ErrClosed
		case v.reset:
			fc.in.resets.Add(1)
			fc.kill()
			return written, ErrReset
		case v.truncate:
			fc.in.truncations.Add(1)
			n, _ := fc.Conn.Write(p[written : written+v.chunk])
			fc.kill()
			return written + n, ErrReset
		}
		n, err := fc.Conn.Write(p[written : written+v.chunk])
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

func (fc *faultConn) Close() error {
	fc.killed.Store(true)
	return fc.Conn.Close()
}
