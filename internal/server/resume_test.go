package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"etrain/internal/fleet"
	"etrain/internal/wire"
)

// testSession synthesizes one device's wire replay.
func testSession(t *testing.T, index int) Session {
	t.Helper()
	pop := testPopulation(t)
	dev, err := fleet.SynthesizeDevice(7, pop, index, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// admitAndCut opens a session on srv, streams the first n events, then
// cuts the connection mid-protocol. It returns the session frames fully
// received before the cut and asserts the server parks rather than
// errors.
func admitAndCut(t *testing.T, srv *Server, sess Session, n int) []wire.Message {
	t.Helper()
	c, sconn := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn) }()
	w := wire.NewWriter(c)
	r := wire.NewReader(c)
	if err := w.Write(sess.Hello); err != nil {
		t.Fatal(err)
	}
	if m, err := r.Next(); err != nil {
		t.Fatal(err)
	} else if a, ok := m.(wire.Ack); !ok || a.Seq != 0 {
		t.Fatalf("admission frame %v, want ack{0}", m)
	}
	frames := make(chan []wire.Message, 1)
	go func() {
		var got []wire.Message
		for {
			m, err := r.Next()
			if err != nil {
				frames <- got
				return
			}
			got = append(got, m)
		}
	}()
	for _, ev := range sess.Events[:n] {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	got := <-frames
	if err := <-srvErr; !errors.Is(err, ErrSessionParked) {
		t.Fatalf("cut session returned %v, want ErrSessionParked", err)
	}
	return got
}

// resumeAndFinish reconnects with a Resume confirming got frames, then
// completes the protocol, returning the frames received on the second
// connection. The events go out on their own goroutine and the conn is
// closed before the server is waited on, so a server stream that runs
// past its final Ack fails the call instead of blocking both ends of the
// pipe.
func resumeAndFinish(t *testing.T, srv *Server, sess Session, got uint64) ([]wire.Message, error) {
	t.Helper()
	c, sconn := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn) }()
	defer c.Close()
	w := wire.NewWriter(c)
	r := wire.NewReader(c)
	resume := wire.Resume{DeviceID: sess.Hello.DeviceID, Token: wire.SessionToken(sess.Hello), Got: got}
	if err := w.Write(resume); err != nil {
		return nil, fmt.Errorf("writing resume: %w", err)
	}
	m, err := r.Next()
	if err != nil {
		// The server refused the resume and closed; surface its error.
		if serr := <-srvErr; serr != nil {
			return nil, serr
		}
		return nil, err
	}
	ok, is := m.(wire.ResumeOK)
	if !is {
		return nil, fmt.Errorf("resume answer %v, want resume_ok", m)
	}
	rest := clientFrames(sess)[1:]
	if ok.Got > uint64(len(rest)) {
		return nil, fmt.Errorf("resume_ok reports %d consumed frames, client only sent %d", ok.Got, len(rest))
	}
	writeErr := make(chan error, 1)
	go func() {
		for _, m := range rest[ok.Got:] {
			if err := w.Write(m); err != nil {
				writeErr <- fmt.Errorf("resending %s: %w", m.MsgType(), err)
				return
			}
		}
		writeErr <- nil
	}()
	frames, readErr := readToFinalAck(r)
	c.Close()
	werr, serr := <-writeErr, <-srvErr
	for _, err := range []error{readErr, werr, serr} {
		if err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// readToFinalAck reads a resumed session's frames through its final Ack,
// then requires the stream to end there: the server closes the conn after
// the Ack, and any frame after it is an error.
func readToFinalAck(r *wire.Reader) ([]wire.Message, error) {
	var frames []wire.Message
	for {
		m, err := r.Next()
		if err != nil {
			return nil, err
		}
		frames = append(frames, m)
		if _, final := m.(wire.Ack); final {
			break
		}
	}
	if m, err := r.Next(); err == nil {
		return nil, fmt.Errorf("%s frame after the final ack", m.MsgType())
	} else if err != io.EOF {
		return nil, err
	}
	return frames, nil
}

// decisionsOf filters a frame stream to its Decision frames.
func decisionsOf(frames []wire.Message) []wire.Decision {
	var ds []wire.Decision
	for _, m := range frames {
		if d, ok := m.(wire.Decision); ok {
			ds = append(ds, d)
		}
	}
	return ds
}

// statsOf extracts the StatsSnapshot from a frame stream.
func statsOf(t *testing.T, frames []wire.Message) wire.StatsSnapshot {
	t.Helper()
	for _, m := range frames {
		if s, ok := m.(wire.StatsSnapshot); ok {
			return s
		}
	}
	t.Fatal("no stats snapshot in frame stream")
	return wire.StatsSnapshot{}
}

// TestResumeZeroLoss cuts a session mid-protocol, resumes it, and
// verifies the stitched decision stream and metrics are identical to an
// uninterrupted run: the journal replays every unconfirmed frame and the
// engine position survives the disconnect.
func TestResumeZeroLoss(t *testing.T) {
	sess := testSession(t, 0)
	if len(sess.Events) < 4 {
		t.Fatalf("test device has only %d events", len(sess.Events))
	}
	baseline := driveLoopback(t, New(Config{}), sess)

	for _, cut := range []int{1, len(sess.Events) / 2, len(sess.Events) - 1} {
		t.Run(fmt.Sprintf("cut_at_%d", cut), func(t *testing.T) {
			srv := New(Config{})
			before := admitAndCut(t, srv, sess, cut)
			after, err := resumeAndFinish(t, srv, sess, uint64(len(before)))
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			got := append(decisionsOf(before), decisionsOf(after)...)
			if len(got) != len(baseline.Decisions) {
				t.Fatalf("stitched run has %d decisions, baseline %d", len(got), len(baseline.Decisions))
			}
			for i := range got {
				if fmt.Sprintf("%+v", got[i]) != fmt.Sprintf("%+v", baseline.Decisions[i]) {
					t.Fatalf("decision %d differs:\n got %+v\nwant %+v", i, got[i], baseline.Decisions[i])
				}
			}
			if stats := statsOf(t, after); stats != baseline.Stats {
				t.Errorf("stitched stats %+v, baseline %+v", stats, baseline.Stats)
			}
			s := srv.Stats()
			if s.Parked != 1 || s.Resumed != 1 || s.Completed != 1 || s.Errored != 0 || s.Detached != 0 {
				t.Errorf("counters after resume: %+v", s)
			}
		})
	}
}

// TestResumeTokenMismatch verifies a Resume with the wrong token cannot
// adopt a parked session — and does not destroy it either.
func TestResumeTokenMismatch(t *testing.T) {
	sess := testSession(t, 1)
	srv := New(Config{})
	before := admitAndCut(t, srv, sess, 1)

	c, sconn := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn) }()
	w := wire.NewWriter(c)
	if err := w.Write(wire.Resume{DeviceID: sess.Hello.DeviceID, Token: 12345, Got: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewReader(c).Next(); err == nil {
		t.Fatal("forged resume got a frame, want refusal")
	}
	c.Close()
	if err := <-srvErr; err == nil || errors.Is(err, ErrSessionParked) {
		t.Fatalf("forged resume session error = %v, want terminal refusal", err)
	}
	if s := srv.Stats(); s.ResumeMisses != 1 || s.Detached != 1 {
		t.Errorf("counters after forged resume: %+v", s)
	}

	// The genuine client still resumes.
	if _, err := resumeAndFinish(t, srv, sess, uint64(len(before))); err != nil {
		t.Fatalf("genuine resume after forgery: %v", err)
	}
}

// TestResumeGraceExpiry verifies a parked session is discarded once its
// grace elapses on the injected clock.
func TestResumeGraceExpiry(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	srv := New(Config{ResumeGrace: time.Minute, Clock: clock})
	sess := testSession(t, 2)
	admitAndCut(t, srv, sess, 1)
	if s := srv.Stats(); s.Detached != 1 {
		t.Fatalf("detached = %d, want 1", s.Detached)
	}

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if _, err := resumeAndFinish(t, srv, sess, 0); err == nil {
		t.Fatal("resume after grace expiry succeeded, want miss")
	}
	if s := srv.Stats(); s.Discarded != 1 || s.Detached != 0 || s.ResumeMisses != 1 {
		t.Errorf("counters after expiry: %+v", s)
	}
}

// TestRetainSessionsEviction verifies the registry cap discards the
// oldest parked session first.
func TestRetainSessionsEviction(t *testing.T) {
	srv := New(Config{RetainSessions: 1})
	sess0 := testSession(t, 0)
	sess1 := testSession(t, 1)
	admitAndCut(t, srv, sess0, 1)
	admitAndCut(t, srv, sess1, 1)
	if s := srv.Stats(); s.Detached != 1 || s.Discarded != 1 {
		t.Fatalf("counters after over-cap parks: %+v", s)
	}
	if _, err := resumeAndFinish(t, srv, sess0, 0); err == nil {
		t.Error("evicted session resumed, want miss")
	}
	if _, err := resumeAndFinish(t, srv, sess1, 0); err != nil {
		t.Errorf("retained session resume: %v", err)
	}
}

// TestResumeDisabled verifies ResumeGrace < 0 restores the seed
// fail-on-disconnect behavior.
func TestResumeDisabled(t *testing.T) {
	srv := New(Config{ResumeGrace: -1})
	sess := testSession(t, 0)
	c, sconn := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn) }()
	w := wire.NewWriter(c)
	r := wire.NewReader(c)
	if err := w.Write(sess.Hello); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := <-srvErr; err == nil || errors.Is(err, ErrSessionParked) {
		t.Fatalf("disconnect with parking disabled: %v, want terminal error", err)
	}
	if s := srv.Stats(); s.Errored != 1 || s.Parked != 0 {
		t.Errorf("counters: %+v", s)
	}
}

// TestShutdownDiscardsDetached verifies Shutdown empties the parked
// registry and refuses later resumes.
func TestShutdownDiscardsDetached(t *testing.T) {
	srv := New(Config{})
	sess := testSession(t, 1)
	admitAndCut(t, srv, sess, 1)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := srv.Stats(); s.Detached != 0 || s.Discarded != 1 {
		t.Errorf("counters after shutdown: %+v", s)
	}
	c, sconn := net.Pipe()
	defer c.Close()
	if err := srv.ServeConn(sconn); err != ErrServerClosed {
		t.Errorf("resume after shutdown: %v, want ErrServerClosed", err)
	}
}

// TestShutdownDrainTimeout is the regression for the unbounded drain: a
// peer that stops reading wedges its session on a blocked decision
// write, and Shutdown — with no context deadline at all — must still
// return once DrainTimeout forces the connection's I/O to fail.
func TestShutdownDrainTimeout(t *testing.T) {
	srv := New(Config{
		Clock:        time.Now,
		DrainTimeout: 50 * time.Millisecond,
		// Parking is irrelevant here: the server is draining, so the
		// wedged session cannot park and must error out.
	})
	sess := testSession(t, 0)
	c, sconn := net.Pipe()
	defer c.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn) }()
	w := wire.NewWriter(c)
	r := wire.NewReader(c)
	if err := w.Write(sess.Hello); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	// Feed events until the session wedges: it will emit a decision that
	// this client never reads, blocking the processor on the pipe write.
	// Event writes themselves keep succeeding until the queue fills, so
	// write from a goroutine and stop caring once shutdown begins.
	go func() {
		for _, ev := range sess.Events {
			if err := w.Write(ev); err != nil {
				return
			}
		}
		w.Write(wire.Ack{Seq: uint64(len(sess.Events)) + 1})
	}()
	// Wait until the session is provably wedged mid-write (frames out
	// stalls while the queue is full) — or just give it a moment.
	time.Sleep(20 * time.Millisecond)

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown never returned: drain is unbounded")
	}
	if err := <-srvErr; err == nil {
		t.Error("wedged session returned nil, want deadline error")
	}
}
