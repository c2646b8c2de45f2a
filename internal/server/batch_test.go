package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"etrain/internal/radio"
	"etrain/internal/wire"
)

// clientFrames is a session's client frame script: the Hello, the
// events, then the finish ack.
func clientFrames(sess Session) []wire.Message {
	frames := append([]wire.Message{sess.Hello}, sess.Events...)
	return append(frames, wire.Ack{Seq: uint64(len(sess.Events)) + 1})
}

// replayPerFrame runs sess through a direct Replayer and returns the
// frames it emits for each applied client frame: the events, then the
// finish ack.
func replayPerFrame(t *testing.T, sess Session) [][]wire.Message {
	t.Helper()
	var cur []wire.Message
	rp, err := NewReplayer(sess.Hello, radio.GalaxyS43G(), func(m wire.Message) error {
		cur = append(cur, m)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	script := clientFrames(sess)[1:]
	out := make([][]wire.Message, len(script))
	for i, m := range script {
		cur = nil
		if err := rp.Apply(m); err != nil {
			t.Fatal(err)
		}
		out[i] = cur
	}
	return out
}

// TestFlushOnIdle drives a device that streams in real time: it sends
// one event, then waits for that event's decisions before sending the
// next. Each event's frames must arrive on their own — the server
// flushes whenever its event queue runs dry — with the read deadline as
// the failure signal for a batch held back.
func TestFlushOnIdle(t *testing.T) {
	for i := 0; i < 3; i++ {
		sess := testSession(t, i)
		want := replayPerFrame(t, sess)
		srv := New(Config{})
		c, sconn := net.Pipe()
		srvErr := make(chan error, 1)
		go func() { srvErr <- srv.ServeConn(sconn) }()
		w := wire.NewWriter(c)
		r := wire.NewReader(c)
		read := func() wire.Message {
			t.Helper()
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			m, err := r.Next()
			if err != nil {
				t.Fatalf("device %d: %v", i, err)
			}
			return m
		}
		if err := w.Write(sess.Hello); err != nil {
			t.Fatal(err)
		}
		if m := read(); m != (wire.Ack{Seq: 0}) {
			t.Fatalf("device %d admission %v, want ack{0}", i, m)
		}
		for j, m := range clientFrames(sess)[1:] {
			if err := w.Write(m); err != nil {
				t.Fatal(err)
			}
			for k, wf := range want[j] {
				if got := read(); !reflect.DeepEqual(got, wf) {
					t.Fatalf("device %d frame %d after client frame %d:\n got %+v\nwant %+v", i, k, j, got, wf)
				}
			}
		}
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if m, err := r.Next(); err != io.EOF {
			t.Fatalf("device %d after the final ack: %v, %v; want EOF", i, m, err)
		}
		c.Close()
		if err := <-srvErr; err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
	}
}

// TestBatchedStreamBytes holds batching to the unbatched byte stream: a
// client that sends its whole script in one write gets back exactly the
// admission Ack{0} followed by the concatenated wire.Encode of every
// frame the direct Replayer emits.
func TestBatchedStreamBytes(t *testing.T) {
	for i := 0; i < 5; i++ {
		sess := testSession(t, i)
		want, err := wire.Encode(wire.Ack{Seq: 0})
		if err != nil {
			t.Fatal(err)
		}
		nFrames := uint64(1)
		for _, frames := range replayPerFrame(t, sess) {
			for _, m := range frames {
				if want, err = wire.Append(want, m); err != nil {
					t.Fatal(err)
				}
				nFrames++
			}
		}
		srv := New(Config{})
		c, sconn := net.Pipe()
		srvErr := make(chan error, 1)
		go func() { srvErr <- srv.ServeConn(sconn) }()
		writeErr := make(chan error, 1)
		go func() {
			w := wire.NewWriter(c)
			for _, m := range clientFrames(sess) {
				if err := w.Buffer(m); err != nil {
					writeErr <- err
					return
				}
			}
			writeErr <- w.Flush()
		}()
		got, err := io.ReadAll(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-writeErr; err != nil {
			t.Fatal(err)
		}
		if err := <-srvErr; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("device %d: server stream differs from the direct replay's frames:\n got %x\nwant %x", i, got, want)
		}
		if s := srv.Stats(); s.FramesOut != nFrames {
			t.Errorf("device %d: FramesOut %d for a %d-frame stream", i, s.FramesOut, nFrames)
		}
	}
}

// TestResumeWhileParkedUnwinds parks a session and resumes it on a second
// conn as soon as the park is visible — typically while the first
// runSession is still joining its reader and pooling its buffers — and
// checks that the parked session held neither conn nor writer and that
// the stitched stream loses nothing. Under -race this proves the unwind
// and the adoption share no session state.
func TestResumeWhileParkedUnwinds(t *testing.T) {
	sess := testSession(t, 0)
	baseline := driveLoopback(t, New(Config{}), sess)
	srv := New(Config{})

	c, sconn := net.Pipe()
	firstErr := make(chan error, 1)
	go func() { firstErr <- srv.ServeConn(sconn) }()
	w := wire.NewWriter(c)
	r := wire.NewReader(c)
	if err := w.Write(sess.Hello); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(sess.Events[0]); err != nil {
		t.Fatal(err)
	}
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Detached == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session never parked: %+v", srv.Stats())
		}
		time.Sleep(50 * time.Microsecond)
	}
	srv.mu.Lock()
	for _, e := range srv.detached {
		if e.sess.conn != nil || e.sess.w != nil {
			t.Errorf("parked session still holds conn %v, writer %v", e.sess.conn, e.sess.w)
		}
	}
	srv.mu.Unlock()

	after, err := resumeAndFinish(t, srv, sess, 0)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := <-firstErr; !errors.Is(err, ErrSessionParked) {
		t.Fatalf("first conn returned %v, want ErrSessionParked", err)
	}
	if got := decisionsOf(after); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", baseline.Decisions) {
		t.Fatalf("resumed decisions differ:\n got %+v\nwant %+v", got, baseline.Decisions)
	}
	if stats := statsOf(t, after); stats != baseline.Stats {
		t.Errorf("resumed stats %+v, baseline %+v", stats, baseline.Stats)
	}
}
