package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"etrain/internal/radio"
	"etrain/internal/wire"
)

// Per-connection buffer sizes.
const (
	// readBufSize is the session reader's buffered-read size. A client
	// that batches its frames is decoded from one read call per KiB —
	// the whole event batch of a 2-minute device — and a connection that
	// misses the pool costs little more than one that hits it.
	readBufSize = 1 << 10
	// flushAt is the pending outbound size that forces a flush before
	// the event queue runs dry, bounding the batch a session holds back.
	flushAt = 4 << 10
)

// connBufs is one connection's I/O state: the buffered reader the
// session's reader goroutine decodes from, the event queue it feeds and
// the frame writer the session's processor batches into. It is pooled
// across connections, so a session's steady state allocates none of them.
type connBufs struct {
	br     *bufio.Reader
	fr     *wire.Reader
	w      *wire.Writer
	events chan inbound
}

var connBufPool = sync.Pool{New: func() any {
	cb := &connBufs{
		br:     bufio.NewReaderSize(nil, readBufSize),
		w:      wire.NewWriter(nil),
		events: make(chan inbound, DefaultQueueDepth),
	}
	cb.fr = wire.NewReader(cb.br)
	return cb
}}

// getConnBufs takes a pooled buffer set and points it at conn.
func getConnBufs(conn net.Conn) *connBufs {
	cb := connBufPool.Get().(*connBufs)
	cb.br.Reset(conn)
	cb.w.Reset(conn)
	return cb
}

// putConnBufs drops cb's conn, any unread or unflushed bytes and any
// queued events, and returns it to the pool. Only call it once nothing
// can touch cb again: after the reader goroutine has joined and after the
// session has dropped its writer.
func putConnBufs(cb *connBufs) {
	cb.br.Reset(nil)
	cb.w.Reset(nil)
	for len(cb.events) > 0 {
		<-cb.events
	}
	connBufPool.Put(cb)
}

// journaled is one emitted session frame retained for resume replay.
type journaled struct {
	seq uint64
	msg wire.Message
}

// session is one device's protocol state: a frame reader feeding a
// bounded event queue, a Replayer turning events into outbound frames,
// and the sequence bookkeeping that lets the session survive its
// connection. A session outlives a broken conn: it parks in the server's
// detached registry and a later Resume handshake adopts it onto a fresh
// connection (DESIGN.md §11).
type session struct {
	srv *Server
	// conn and w are the current connection and its pooled frame writer;
	// both are nil while the session is parked.
	conn  net.Conn
	w     *wire.Writer
	batch batch
	rep   *Replayer
	hello wire.Hello
	token uint64

	// inSeq counts client session frames consumed by the engine; it is
	// what ResumeOK reports so the client resends only unprocessed events.
	inSeq uint64
	// outSeq numbers emitted session frames; skipTo suppresses emissions
	// the client already holds (it resumed ahead after degraded mode).
	outSeq uint64
	skipTo uint64
	// journal retains exactly the frames with seq in (skipTo, outSeq] for
	// replay; Resume{Got} prunes the prefix the client confirms.
	journal []journaled
	// broken latches the first transport write error on the current conn;
	// emission keeps journaling past it so nothing is lost before parking.
	broken error
}

// batch counts the frames buffered on the session's writer since the
// last flush, so a flushed batch is counted in one transition.
type batch struct {
	frames, decisions, busy uint64
}

// inbound is one decoded frame (or the reader's terminal error) queued
// for the session's processor.
type inbound struct {
	msg wire.Message
	err error
}

// runSession speaks the session protocol on conn: a Hello or Resume
// handshake, then events in, decisions out, then the finish exchange.
// The reader goroutine is the only conn reader and the processor the
// only writer; the bounded queue between them is the session's
// backpressure: when the engine falls behind, the reader stops pulling
// frames and the transport blocks the client.
//
// Outbound frames are batched on the connection's writer and flushed,
// always on a frame boundary, at explicit points: after the handshake
// answer, whenever the event queue is empty or flushAt bytes are
// pending, on completion, and before any park or error return. A device
// streaming in real time therefore gets each event's decisions as soon
// as the engine produces them, while a client that sends its events in
// one batch gets its decisions back in few writes.
//
// A transport failure mid-session does not discard the engine: the
// session parks for ResumeGrace and runSession returns ErrSessionParked.
func (s *Server) runSession(conn net.Conn) error {
	cb := getConnBufs(conn)
	events := cb.events
	if cap(events) != s.cfg.QueueDepth {
		events = make(chan inbound, s.cfg.QueueDepth)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			s.readDeadline(conn)
			m, err := cb.fr.Next()
			if err != nil {
				select {
				case events <- inbound{err: err}:
				case <-stop:
				}
				return
			}
			s.countFrameIn()
			select {
			case events <- inbound{msg: m}:
			case <-stop:
				return
			}
		}
	}()
	// Join the reader on every exit path: closing stop releases it from a
	// send onto a full queue, closing conn releases it from a blocked
	// Read, and readerDone confirms it is gone. Only then do the
	// connection's buffers go back to the pool, with the event queue
	// drained of what the processor left unread; a session that parked
	// dropped its writer before parking (detach), so nothing still
	// reachable holds them.
	defer func() {
		close(stop)
		conn.Close()
		<-readerDone
		putConnBufs(cb)
	}()

	// Handshake: the first frame opens a fresh session (Hello) or adopts
	// a parked one (Resume).
	first := <-events
	if first.err != nil {
		return fmt.Errorf("server: reading hello: %w", first.err)
	}
	var sess *session
	switch h := first.msg.(type) {
	case wire.Hello:
		if a := s.cfg.Admission; a != nil {
			if ok, ra := a.AdmitHello(h); !ok {
				s.sendBusy(conn, wire.Busy{RetryAfter: ra, Reason: wire.ReasonConns})
				return errHelloRefused
			}
		}
		sess = &session{srv: s, conn: conn, w: cb.w}
		rep, err := NewReplayer(h, radio.GalaxyS43G(), sess.emit)
		if err != nil {
			return err
		}
		sess.rep = rep
		sess.hello = h
		sess.token = wire.SessionToken(h)
		sess.send(wire.Ack{Seq: 0})
		sess.flush()
		if sess.broken != nil {
			return fmt.Errorf("server: writing ack: %w", sess.broken)
		}
	case wire.Resume:
		var err error
		sess, err = s.adopt(conn, cb.w, h)
		if err != nil {
			return err
		}
		sess.flush()
		if sess.broken != nil {
			// The new conn died during the resume replay; park again.
			return s.reparkOr(sess, fmt.Errorf("server: resume replay: %w", sess.broken))
		}
		if sess.rep.Done() {
			return sess.complete()
		}
	default:
		return fmt.Errorf("server: first frame is %s, want hello", first.msg.MsgType())
	}

	// Event loop: feed the engine until the client's end-of-events Ack.
	for ev := range events {
		if ev.err != nil {
			if transportErr(ev.err) {
				return s.reparkOr(sess, readLossErr(ev.err))
			}
			sess.flush()
			return fmt.Errorf("server: reading frame: %w", ev.err)
		}
		if a := s.cfg.Admission; a != nil {
			if c, cargo := ev.msg.(wire.CargoArrival); cargo {
				if shed, ra := a.ShedCargo(sess.hello, c, len(events)); shed {
					// Shed defers, it never loses: the event is not
					// consumed (no inSeq advance, no Apply), so the
					// resume handshake's ResumeOK.Got makes the client
					// redeliver it. Busy goes out as a control frame —
					// never numbered, never journaled — in the batch
					// flushed before the session parks awaiting that
					// resume.
					s.count(func(ct *Counters) { ct.Shed++ })
					sess.send(wire.Busy{RetryAfter: ra, Reason: wire.ReasonQueue})
					return s.reparkOr(sess, fmt.Errorf("server: cargo %d shed under queue pressure", c.ID))
				}
			}
		}
		sess.inSeq++
		if err := sess.rep.Apply(ev.msg); err != nil {
			sess.flush()
			return err
		}
		if sess.rep.Done() || len(events) == 0 {
			sess.flush()
		}
		if sess.broken != nil {
			return s.reparkOr(sess, fmt.Errorf("server: writing frame: %w", sess.broken))
		}
		if sess.rep.Done() {
			return sess.complete()
		}
	}
	return fmt.Errorf("server: event queue closed") // unreachable
}

// adopt moves a parked session onto conn and its writer w: it validates
// the Resume against the detached registry, prunes the journal to the
// client's confirmed prefix, and buffers the ResumeOK answer (with the
// server's consumed-event count) and the retained frames for the
// caller's handshake flush.
func (s *Server) adopt(conn net.Conn, w *wire.Writer, r wire.Resume) (*session, error) {
	sess := s.takeDetached(sessionKey{device: r.DeviceID, token: r.Token})
	if sess == nil {
		s.count(func(c *Counters) { c.ResumeMisses++ })
		return nil, fmt.Errorf("server: resume: no detached session for device %d", r.DeviceID)
	}
	if r.Got < sess.skipTo {
		// The client confirms less than a previous resume did; the frames
		// in between were pruned and cannot be regenerated here. The taken
		// session resolves as discarded, leaving the detached gauge in the
		// same transition.
		s.count(func(c *Counters) {
			c.Discarded++
			c.Detached--
		})
		return nil, fmt.Errorf("server: resume gap: client got %d, journal starts after %d", r.Got, sess.skipTo)
	}
	s.count(func(c *Counters) {
		c.Resumed++
		c.Detached--
	})
	sess.conn = conn
	sess.w = w
	sess.broken = nil
	// Drop the confirmed prefix; suppress regeneration of anything the
	// client already holds (it may be ahead after degraded-mode work).
	for len(sess.journal) > 0 && sess.journal[0].seq <= r.Got {
		sess.journal = sess.journal[1:]
	}
	sess.skipTo = r.Got
	sess.send(wire.ResumeOK{Got: sess.inSeq})
	for _, j := range sess.journal {
		sess.send(j.msg)
	}
	return sess, nil
}

// reparkOr parks sess after a transport failure, or returns fallback
// when parking is disabled or refused. It flushes what the conn will
// still take and detaches the session from it first: once parked, the
// session may be adopted by a Resume on another conn while this one's
// runSession unwinds and pools the writer.
func (s *Server) reparkOr(sess *session, fallback error) error {
	sess.flush()
	sess.conn, sess.w = nil, nil
	if s.park(sess) {
		return ErrSessionParked
	}
	return fallback
}

// readLossErr renders a transport-level read failure in the session's
// historical error vocabulary.
func readLossErr(err error) error {
	if errors.Is(err, io.EOF) {
		return errors.New("server: connection closed before finish ack")
	}
	return fmt.Errorf("server: reading frame: %w", err)
}

// transportErr reports whether err is a connection-level failure — the
// kind a reconnecting client can heal — rather than a protocol or
// engine error.
func transportErr(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, wire.ErrTruncated) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// complete finishes a session cleanly, dropping any stale parked twin —
// a session that parked and was then healed by a full Hello replay
// rather than a resume — so it does not linger to expiry. The finished
// replayer goes back to the pool for the next Hello; this is the only
// place one does; a parked, errored or panicked session's never does.
func (sess *session) complete() error {
	sess.srv.dropDetached(sessionKey{device: sess.hello.DeviceID, token: sess.token})
	putReplayer(sess.rep)
	sess.rep = nil
	return nil
}

// emit is the Replayer's sink: it numbers the frame, suppresses what the
// client already holds, journals the rest for resume, and best-effort
// buffers it for the next flush. It never fails — a write error latches
// sess.broken so the engine finishes the event cleanly and the session
// parks afterwards with every frame journaled.
//
//etrain:hotpath
func (sess *session) emit(m wire.Message) error {
	sess.outSeq++
	if sess.outSeq <= sess.skipTo {
		return nil
	}
	sess.journal = append(sess.journal, journaled{seq: sess.outSeq, msg: m})
	sess.send(m)
	return nil
}

// send buffers m on the current conn's batch unless the conn is already
// broken, flushing once flushAt bytes are pending. An encoding failure
// latches broken like a write failure.
//
//etrain:hotpath
func (sess *session) send(m wire.Message) {
	if sess.broken != nil {
		return
	}
	if err := sess.w.Buffer(m); err != nil {
		sess.broken = err
		return
	}
	sess.batch.frames++
	switch m.(type) {
	case wire.Decision:
		sess.batch.decisions++
	case wire.Busy:
		sess.batch.busy++
	}
	if sess.w.Buffered() >= flushAt {
		sess.flush()
	}
}

// flush writes the pending batch under the configured write deadline
// and counts it in one transition. A write failure latches broken and
// counts nothing; the frames stay journaled for resume.
func (sess *session) flush() {
	b := sess.batch
	sess.batch = batch{}
	if sess.broken != nil || b.frames == 0 {
		return
	}
	sess.srv.writeDeadline(sess.conn)
	if err := sess.w.Flush(); err != nil {
		sess.broken = err
		return
	}
	sess.srv.countBatch(b)
}

// readDeadline arms the idle timeout, when a clock is injected.
func (s *Server) readDeadline(conn net.Conn) {
	if s.cfg.Clock != nil && s.cfg.IdleTimeout > 0 {
		conn.SetReadDeadline(s.cfg.Clock().Add(s.cfg.IdleTimeout))
	}
}

// writeDeadline arms the write timeout, when a clock is injected.
func (s *Server) writeDeadline(conn net.Conn) {
	if s.cfg.Clock != nil && s.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(s.cfg.Clock().Add(s.cfg.WriteTimeout))
	}
}
