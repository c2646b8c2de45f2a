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

// connBufs is one connection's I/O state: the buffered reader and frame
// the session's reader goroutine decodes into, the event queue it feeds,
// the signal it sends on exit, and the frame writer the session's
// processor batches into. It is pooled across connections, so a session's
// steady state allocates none of them.
type connBufs struct {
	br     *bufio.Reader
	fr     *wire.Reader
	frame  wire.Frame
	w      *wire.Writer
	events chan inbound
	// readerDone receives the reader goroutine's one exit signal; the
	// join consumes it, so it is empty again when cb is pooled.
	readerDone chan struct{}
}

var connBufPool = sync.Pool{New: func() any {
	cb := &connBufs{
		br:         bufio.NewReaderSize(nil, readBufSize),
		w:          wire.NewWriter(nil),
		events:     make(chan inbound, DefaultQueueDepth),
		readerDone: make(chan struct{}, 1),
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

// session is one device's protocol state: a frame reader feeding a
// bounded event queue, a Replayer turning events into outbound frames,
// and the sequence bookkeeping that lets the session survive its
// connection. A session outlives a broken conn: it parks in the server's
// detached registry and a later Resume handshake adopts it onto a fresh
// connection (DESIGN.md §11). Sessions are pooled with their journal's
// capacity; only a completed session goes back (complete).
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
	// journal retains, encoded back to back, exactly the frames with seq
	// in (skipTo, outSeq] for replay: frame i has seq skipTo+1+i, and
	// Resume{Got} drops the prefix the client confirms.
	journal []byte
	// frame is the scratch frame handshake answers and journal replays
	// are encoded from.
	frame wire.Frame
	// broken latches the first transport write error on the current conn;
	// emission keeps journaling past it so nothing is lost before parking.
	broken error
}

// sessionPool holds completed sessions, with their journal's capacity.
var sessionPool = sync.Pool{New: func() any { return new(session) }}

// newSession takes a pooled session and opens it for h on conn and its
// writer w, with an empty journal.
func (s *Server) newSession(conn net.Conn, w *wire.Writer, h wire.Hello) *session {
	sess := sessionPool.Get().(*session)
	*sess = session{
		srv:     s,
		conn:    conn,
		w:       w,
		hello:   h,
		token:   wire.SessionToken(h),
		journal: sess.journal[:0],
	}
	return sess
}

// batch counts the frames buffered on the session's writer since the
// last flush, so a flushed batch is counted in one transition.
type batch struct {
	frames, decisions, busy uint64
}

// inbound is one client frame as the session's processor consumes it, by
// value: the message of a session kind (Hello, Resume, HeartbeatObserved,
// CargoArrival, Ack), only the type of any other frame (the session
// rejects it), or the reader's terminal error. It holds no pointer into
// the frame it was decoded from.
type inbound struct {
	typ    wire.Type
	hello  wire.Hello
	resume wire.Resume
	beat   wire.HeartbeatObserved
	cargo  wire.CargoArrival
	ack    wire.Ack
	err    error
}

// setFrame copies f's message into ev.
func (ev *inbound) setFrame(f *wire.Frame) {
	ev.typ = f.Type
	switch f.Type {
	case wire.TypeHello:
		ev.hello = f.Hello
	case wire.TypeResume:
		ev.resume = f.Resume
	case wire.TypeHeartbeatObserved:
		ev.beat = f.Heartbeat
	case wire.TypeCargoArrival:
		ev.cargo = f.Cargo
	case wire.TypeAck:
		ev.ack = f.Ack
	}
}

// setMessage copies m into ev as far as a Replayer reads it: the events
// and the finish Ack, and only the type of anything else.
func (ev *inbound) setMessage(m wire.Message) {
	ev.typ = m.MsgType()
	switch v := m.(type) {
	case wire.HeartbeatObserved:
		ev.beat = v
	case wire.CargoArrival:
		ev.cargo = v
	case wire.Ack:
		ev.ack = v
	}
}

// readLoop is the session's reader goroutine, conn's only reader: it
// decodes each frame into cb.frame and queues it by value, until a read
// fails or it has queued a session's finish Ack — the client sends
// nothing after it, so the reader ends there instead of waiting in a Read
// that only the close would end. Its last act is the readerDone signal.
//
//etrain:hotpath
func (s *Server) readLoop(conn net.Conn, cb *connBufs, events chan<- inbound) {
	defer func() { cb.readerDone <- struct{}{} }()
	for {
		s.readDeadline(conn)
		var ev inbound
		if ev.err = cb.fr.ReadFrame(&cb.frame); ev.err == nil {
			s.countFrameIn()
			ev.setFrame(&cb.frame)
		}
		events <- ev
		if ev.err != nil || ev.typ == wire.TypeAck {
			return
		}
	}
}

// joinReader ends the session's reader goroutine on any exit path and
// waits for it: closing conn releases it from a blocked Read, and
// draining the queue until it signals releases it from a send onto a
// full queue. The close is the connection's only one.
func joinReader(conn net.Conn, cb *connBufs, events <-chan inbound) {
	conn.Close()
	for {
		select {
		case <-events:
		case <-cb.readerDone:
			return
		}
	}
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
//
//etrain:hotpath
func (s *Server) runSession(conn net.Conn) error {
	cb := getConnBufs(conn)
	events := cb.events
	if cap(events) != s.cfg.QueueDepth {
		events = make(chan inbound, s.cfg.QueueDepth)
	}
	go s.readLoop(conn, cb, events) // the session's one allocation: the goroutine's start
	// Join the reader on every exit path, panics included; only then do
	// the connection's buffers go back to the pool, with the event queue
	// drained of what the processor left unread. A session that parked
	// dropped its writer before parking (detach), so nothing still
	// reachable holds them.
	defer func() {
		joinReader(conn, cb, events)
		putConnBufs(cb)
	}()

	// Handshake: the first frame opens a fresh session (Hello) or adopts
	// a parked one (Resume).
	first := <-events
	if first.err != nil {
		return fmt.Errorf("server: reading hello: %w", first.err)
	}
	var sess *session
	switch first.typ {
	case wire.TypeHello:
		h := first.hello
		if a := s.cfg.Admission; a != nil {
			if ok, ra := a.AdmitHello(h); !ok {
				s.sendBusy(conn, wire.Busy{RetryAfter: ra, Reason: wire.ReasonConns})
				return errHelloRefused
			}
		}
		sess = s.newSession(conn, cb.w, h)
		rep, err := getReplayer(h, radio.GalaxyS43G(), sess)
		if err != nil {
			return err
		}
		sess.rep = rep
		sess.frame.Type, sess.frame.Ack = wire.TypeAck, wire.Ack{Seq: 0}
		sess.send(&sess.frame)
		sess.flush()
		if sess.broken != nil {
			return fmt.Errorf("server: writing ack: %w", sess.broken)
		}
	case wire.TypeResume:
		var err error
		sess, err = s.adopt(conn, cb.w, first.resume)
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
		return fmt.Errorf("server: first frame is %s, want hello", first.typ)
	}

	// Event loop: feed the engine until the client's end-of-events Ack.
	for {
		ev := <-events
		if ev.err != nil {
			if transportErr(ev.err) {
				return s.reparkOr(sess, readLossErr(ev.err))
			}
			sess.flush()
			return fmt.Errorf("server: reading frame: %w", ev.err)
		}
		if a := s.cfg.Admission; a != nil && ev.typ == wire.TypeCargoArrival {
			if shed, ra := a.ShedCargo(sess.hello, ev.cargo, len(events)); shed {
				// Shed defers, it never loses: the event is not consumed
				// (no inSeq advance, no Apply), so the resume handshake's
				// ResumeOK.Got makes the client redeliver it. Busy goes
				// out as a control frame — never numbered, never
				// journaled — in the batch flushed before the session
				// parks awaiting that resume.
				s.count(func(ct *Counters) { ct.Shed++ })
				sess.frame.Type, sess.frame.Busy = wire.TypeBusy, wire.Busy{RetryAfter: ra, Reason: wire.ReasonQueue}
				sess.send(&sess.frame)
				return s.reparkOr(sess, fmt.Errorf("server: cargo %d shed under queue pressure", ev.cargo.ID))
			}
		}
		sess.inSeq++
		if err := sess.rep.apply(&ev); err != nil {
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
	confirmed := 0
	for seq := sess.skipTo + 1; seq <= r.Got && confirmed < len(sess.journal); seq++ {
		n, err := sess.frame.Decode(sess.journal[confirmed:])
		if err != nil {
			return nil, fmt.Errorf("server: resume: journal: %w", err)
		}
		confirmed += n
	}
	sess.journal = sess.journal[:copy(sess.journal, sess.journal[confirmed:])]
	sess.skipTo = r.Got
	sess.frame.Type, sess.frame.ResumeOK = wire.TypeResumeOK, wire.ResumeOK{Got: sess.inSeq}
	sess.send(&sess.frame)
	for off := 0; off < len(sess.journal); {
		n, err := sess.frame.Decode(sess.journal[off:])
		if err != nil {
			return nil, fmt.Errorf("server: resume: journal: %w", err)
		}
		off += n
		sess.send(&sess.frame)
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
// replayer and the session itself go back to their pools for the next
// Hello; this is the only place either does: a parked, errored or
// panicked session's never do. The caller must not touch sess after.
func (sess *session) complete() error {
	sess.srv.dropDetached(sessionKey{device: sess.hello.DeviceID, token: sess.token})
	putReplayer(sess.rep)
	*sess = session{journal: sess.journal}
	sessionPool.Put(sess)
	return nil
}

// emit is the session's Replayer sink: it numbers the frame, suppresses
// what the client already holds, journals the rest for resume, and
// best-effort buffers it for the next flush. Only an encoding failure is
// returned; a write error latches sess.broken so the engine finishes the
// event cleanly and the session parks afterwards with every frame
// journaled.
//
//etrain:hotpath
func (sess *session) emit(f *wire.Frame) error {
	sess.outSeq++
	if sess.outSeq <= sess.skipTo {
		return nil
	}
	journal, err := f.Append(sess.journal)
	if err != nil {
		return err
	}
	sess.journal = journal
	sess.send(f)
	return nil
}

// send buffers f on the current conn's batch unless the conn is already
// broken, flushing once flushAt bytes are pending. An encoding failure
// latches broken like a write failure.
//
//etrain:hotpath
func (sess *session) send(f *wire.Frame) {
	if sess.broken != nil {
		return
	}
	if err := sess.w.BufferFrame(f); err != nil {
		sess.broken = err
		return
	}
	sess.batch.frames++
	switch f.Type {
	case wire.TypeDecision:
		sess.batch.decisions++
	case wire.TypeBusy:
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
