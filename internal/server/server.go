// Package server is the network-facing eTrain scheduling service: each
// accepted connection hosts one device session that feeds decoded wire
// frames into an incremental sim.Engine running the core strategy, and
// streams the resulting Decision frames back (DESIGN.md §10).
//
// The package is transport-agnostic — sessions run over any net.Conn, and
// the test suite drives them over in-process net.Pipe loopback — and it
// never reads the wall clock itself: deadlines exist only when the caller
// injects a Clock, so the decision/metrics stream stays a pure function
// of the inbound frame stream.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"etrain/internal/wire"
)

// Defaults for the zero Config.
const (
	// DefaultMaxConns bounds concurrently served connections.
	DefaultMaxConns = 4096
	// DefaultQueueDepth is the per-session event queue bound: when a
	// session's engine falls behind, its reader stops pulling frames after
	// this many are queued and the transport exerts backpressure.
	DefaultQueueDepth = 64
	// DefaultResumeGrace is how long a session disconnected mid-protocol
	// stays parked awaiting resume (expiry needs a Clock).
	DefaultResumeGrace = 2 * time.Minute
	// DefaultRetainSessions caps the detached-session registry; beyond it
	// the oldest parked session is discarded.
	DefaultRetainSessions = 1024
)

// ErrServerClosed reports that Serve stopped because Shutdown began.
var ErrServerClosed = errors.New("server: closed")

// ErrSessionParked reports that a session lost its transport mid-protocol
// and parked its engine state for resume instead of failing. It is how
// ServeConn distinguishes a recoverable disconnect from a protocol error.
var ErrSessionParked = errors.New("server: session parked awaiting resume")

// errHelloRefused reports that the admission policy refused a Hello: the
// client was answered with Busy and the connection closed without a
// session. It resolves the outcome as Refused, not Errored.
var errHelloRefused = errors.New("server: hello refused by admission policy")

// Config parameterizes a Server. The zero value serves with defaults, no
// deadlines and the Galaxy S4 power model.
type Config struct {
	// MaxConns caps concurrently served connections (DefaultMaxConns if
	// zero); connections beyond the cap are closed immediately.
	MaxConns int
	// QueueDepth bounds each session's inbound event queue
	// (DefaultQueueDepth if zero).
	QueueDepth int
	// IdleTimeout bounds the wait for the next inbound frame; it needs a
	// Clock to take effect.
	IdleTimeout time.Duration
	// WriteTimeout bounds each outbound frame write; it needs a Clock.
	WriteTimeout time.Duration
	// ResumeGrace is how long a session that lost its transport stays
	// parked awaiting a Resume (DefaultResumeGrace if zero; negative
	// disables parking entirely, restoring fail-on-disconnect). Grace
	// expiry needs a Clock; without one parked sessions are bounded only
	// by RetainSessions.
	ResumeGrace time.Duration
	// RetainSessions caps the detached-session registry
	// (DefaultRetainSessions if zero); the oldest parked session is
	// discarded when the cap is exceeded.
	RetainSessions int
	// DrainTimeout, with a Clock, bounds how long Shutdown waits for live
	// sessions: the drain arms this deadline on every open connection, so
	// sessions whose peers never read or write are forced to unwind even
	// when Shutdown's context has no deadline of its own.
	DrainTimeout time.Duration
	// Admission, when non-nil, turns on explicit overload signaling: the
	// policy gates new Hellos and sheds cargo under queue pressure, and
	// every refusal — including connection-limit, draining and lame-duck
	// refusals — is answered with a wire.Busy frame instead of a silent
	// close. Nil (the default) preserves the legacy byte stream exactly.
	Admission Admission
	// Clock supplies the wall clock for connection deadlines. Leaving it
	// nil disables deadlines and keeps the server fully deterministic;
	// cmd/etraind injects time.Now at the process boundary.
	Clock func() time.Time
	// Logf, when non-nil, receives per-connection error reports.
	Logf func(format string, args ...any)
}

// Counters is a snapshot of the server's monotonic event counts (Active
// and Detached excepted, which are instantaneous gauges).
//
// A snapshot is internally consistent, not merely individually fresh:
// every multi-counter state change — a session opening, an outcome
// resolving, a batch of frames going out with its Decision and Busy
// classification — is one locked transition, and Stats copies the whole
// set under the same lock.
// In particular Accepted == Active + Completed + Errored + Parked + Refused
// and Decisions <= FramesOut hold in every snapshot, which is what lets a
// cluster shard stream these counters as ShardStats frames without ever
// publishing a torn value.
type Counters struct {
	Accepted     uint64 // connections admitted into sessions
	Rejected     uint64 // connections refused (limit reached or draining)
	Active       uint64 // sessions currently running
	Completed    uint64 // sessions that ran the full protocol
	Errored      uint64 // sessions ended by a protocol or transport error
	Panics       uint64 // sessions ended by a recovered panic
	Parked       uint64 // sessions parked after losing their transport
	Resumed      uint64 // parked sessions adopted by a Resume handshake
	ResumeMisses uint64 // Resume frames naming no parked session
	Discarded    uint64 // parked sessions dropped without resume
	Detached     uint64 // parked sessions currently awaiting resume
	FramesIn     uint64 // frames decoded from clients
	FramesOut    uint64 // frames written to clients
	Decisions    uint64 // Decision frames among FramesOut
	Refused      uint64 // Hellos refused by the admission policy
	Shed         uint64 // cargo frames shed under queue pressure (deferred to resume)
	BusySent     uint64 // wire.Busy frames written to clients
}

// Server hosts device sessions over accepted connections.
type Server struct {
	cfg Config

	// cmu guards ctrs alone. It is ordered after mu (park and the
	// registry sweeps count while holding mu); nothing acquires mu while
	// holding cmu.
	cmu  sync.Mutex
	ctrs Counters

	lameDuck atomic.Bool

	mu        sync.Mutex
	closed    bool
	conns     map[net.Conn]struct{}
	listeners map[net.Listener]struct{}
	detached  map[sessionKey]*parkedEntry
	parkOrder []*parkedEntry
	wg        sync.WaitGroup
}

// count applies one counter transition atomically with respect to Stats:
// all increments inside f land in the same snapshot or none do.
func (s *Server) count(f func(*Counters)) {
	s.cmu.Lock()
	f(&s.ctrs)
	s.cmu.Unlock()
}

// countFrameIn counts one decoded inbound frame (hot path: no closure).
func (s *Server) countFrameIn() {
	s.cmu.Lock()
	s.ctrs.FramesIn++
	s.cmu.Unlock()
}

// countBatch counts one flushed outbound batch — its frames and, in the
// same transition, their Decision and Busy classification — so neither
// Decisions nor BusySent can lead FramesOut in a snapshot (hot path: no
// closure).
func (s *Server) countBatch(b batch) {
	s.cmu.Lock()
	s.ctrs.FramesOut += b.frames
	s.ctrs.Decisions += b.decisions
	s.ctrs.BusySent += b.busy
	s.cmu.Unlock()
}

// New returns a server with normalized configuration.
func New(cfg Config) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.ResumeGrace == 0 {
		cfg.ResumeGrace = DefaultResumeGrace
	}
	if cfg.RetainSessions <= 0 {
		cfg.RetainSessions = DefaultRetainSessions
	}
	return &Server{
		cfg:       cfg,
		conns:     make(map[net.Conn]struct{}),
		listeners: make(map[net.Listener]struct{}),
		detached:  make(map[sessionKey]*parkedEntry),
	}
}

// Serve accepts connections from l and serves a session on each until
// Shutdown closes the listener, then returns ErrServerClosed. Accept
// errors other than the shutdown close are returned as-is.
func (s *Server) Serve(l net.Listener) error {
	if !s.addListener(l) {
		l.Close()
		return ErrServerClosed
	}
	defer s.removeListener(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.draining() {
				return ErrServerClosed
			}
			return err
		}
		if ok, reason := s.register(conn); !ok {
			s.refuse(conn, reason)
			continue
		}
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			s.serveSession(conn)
		}(conn)
	}
}

// ServeConn serves one session on conn synchronously, returning the
// session's error (nil for a cleanly completed protocol). It respects the
// connection limit and the drain state exactly like Serve.
func (s *Server) ServeConn(conn net.Conn) error {
	if ok, reason := s.register(conn); !ok {
		s.refuse(conn, reason)
		return ErrServerClosed
	}
	s.wg.Add(1)
	defer s.wg.Done()
	return s.serveSession(conn)
}

// serveSession runs one registered session with panic isolation: a panic
// in the session (or the strategy it hosts) is recovered, counted, and
// confined to its connection. Outcomes count three ways: completed,
// parked (recoverable disconnect, engine retained), or errored. The conn
// is closed once, by runSession's reader join, on every path.
//
// Opening is one counter transition (Accepted and Active together) and the
// outcome another (Active release plus exactly one outcome counter), so
// Accepted == Active + Completed + Errored + Parked + Refused holds in
// every Stats snapshot — the invariant the torn-counter regression test
// races.
func (s *Server) serveSession(conn net.Conn) (err error) {
	s.count(func(c *Counters) {
		c.Accepted++
		c.Active++
	})
	defer func() {
		panicked := false
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("server: session panic: %v", r)
		}
		s.unregister(conn)
		s.count(func(c *Counters) {
			c.Active--
			if panicked {
				c.Panics++
			}
			switch {
			case err == nil:
				c.Completed++
			case errors.Is(err, ErrSessionParked):
				c.Parked++
			case errors.Is(err, errHelloRefused):
				c.Refused++
			default:
				c.Errored++
			}
		})
		if err != nil && !errors.Is(err, ErrSessionParked) && !errors.Is(err, errHelloRefused) {
			s.logf("session %v: %v", conn.RemoteAddr(), err)
		}
	}()
	return s.runSession(conn)
}

// Shutdown drains the server: it stops accepting, rejects new sessions,
// discards parked sessions, and waits for running sessions to finish.
// With a Clock and a DrainTimeout, that wait is bounded without help
// from ctx: the drain deadline is armed on every open connection, so a
// session stuck on a peer that never reads or writes is forced off its
// blocked I/O and unwinds. If ctx expires first, the remaining
// connections are force-closed and Shutdown waits for their sessions to
// unwind before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	s.discardDetachedLocked()
	if s.cfg.Clock != nil && s.cfg.DrainTimeout > 0 {
		deadline := s.cfg.Clock().Add(s.cfg.DrainTimeout)
		for conn := range s.conns {
			conn.SetDeadline(deadline)
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.wg.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Stats snapshots the server's counters: one lock, one struct copy, so
// the returned set is a state the server actually passed through (see
// the Counters invariants).
func (s *Server) Stats() Counters {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	return s.ctrs
}

// SetLameDuck flips lame-duck mode: while set, new connections are
// rejected (and counted Rejected) but in-flight sessions run to
// completion. A cluster shard flips this when a pushed route table no
// longer lists it — drained or superseded — so it finishes what it owns
// while new work routes elsewhere.
func (s *Server) SetLameDuck(on bool) {
	s.lameDuck.Store(on)
}

// LameDucking reports whether lame-duck mode is set.
func (s *Server) LameDucking() bool { return s.lameDuck.Load() }

func (s *Server) addListener(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.listeners[l] = struct{}{}
	return true
}

func (s *Server) removeListener(l net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.listeners, l)
}

// register admits conn into the session set unless the server is
// draining, lame-ducking, or at its connection limit; on refusal it
// reports which pressure refused so the caller can signal it.
func (s *Server) register(conn net.Conn) (bool, wire.BusyReason) {
	if s.lameDuck.Load() {
		return false, wire.ReasonLameDuck
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, wire.ReasonDraining
	}
	if len(s.conns) >= s.cfg.MaxConns {
		return false, wire.ReasonConns
	}
	s.conns[conn] = struct{}{}
	return true, 0
}

// refuse closes a connection register would not admit. Every refusal is
// counted Rejected — including the legacy silent-close path, so
// pre-upgrade clients' rejections stay observable in Counters and
// /metrics — and with an admission policy configured the close is
// preceded by an explicit wire.Busy so the client can tell "busy" from a
// network reset. The Busy write runs off the caller's path: a refused
// peer that never reads must not stall the accept loop. The write is
// bounded by the write deadline when a Clock is configured; without one
// it ends when the peer reads or closes.
func (s *Server) refuse(conn net.Conn, reason wire.BusyReason) {
	s.count(func(c *Counters) { c.Rejected++ })
	a := s.cfg.Admission
	if a == nil {
		conn.Close()
		return
	}
	b := wire.Busy{RetryAfter: a.RetryAfter(), Reason: reason}
	//lint:ignore ctxloop refusal boundary: the Busy write must not stall the accept loop, and it self-terminates — the write deadline bounds it under a Clock, the conn.Close ends it otherwise
	go func() {
		s.sendBusy(conn, b)
		conn.Close()
	}()
}

// sendBusy writes one Busy control frame outside any session's emit path,
// so it is never sequence-numbered or journaled. FramesOut and BusySent
// move in one transition; a failed write counts nothing.
func (s *Server) sendBusy(conn net.Conn, b wire.Busy) {
	s.writeDeadline(conn)
	if wire.NewWriter(conn).Write(b) == nil {
		s.cmu.Lock()
		s.ctrs.BusySent++
		s.ctrs.FramesOut++
		s.cmu.Unlock()
	}
}

func (s *Server) unregister(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
