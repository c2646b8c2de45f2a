//go:build !race

// Under -race, sync.Pool drops items at random, so the pooled session,
// replayer and connection buffers miss and the counts below would wander.

package server

import (
	"io"
	"net"
	"testing"
	"time"

	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/wire"
)

// scriptConn is a net.Conn that allocates nothing itself: it serves a
// pre-encoded client stream from a reusable buffer and counts, then
// discards, what is written to it. rewind readies it for the next session.
type scriptConn struct {
	script  []byte
	off     int
	written int
}

func (c *scriptConn) rewind() { c.off, c.written = 0, 0 }

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.off == len(c.script) {
		return 0, io.EOF
	}
	n := copy(p, c.script[c.off:])
	c.off += n
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error) {
	c.written += len(p)
	return len(p), nil
}

func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// TestSessionAllocatesOnlyItsReader pins the steady state of a served
// session: once one session has warmed the pools, a session served through
// ServeConn allocates only the start of its reader goroutine, plus the
// delay-cost profiles its replayer builds — one per cargo family the
// session names, rebuilt each session by design (the Replayer's profile
// cache is per session; TestReplayerBuildsOneProfilePerKey pins it). A
// heartbeat-only session therefore allocates exactly once. Each session's
// output must be as long as the admission Ack plus the frames a direct
// replay emits.
func TestSessionAllocatesOnlyItsReader(t *testing.T) {
	const readerStart = 1
	cargo := testSession(t, 1)
	beats := cargo
	beats.Events = nil
	families := map[profile.Kind]bool{}
	for _, m := range cargo.Events {
		switch v := m.(type) {
		case wire.HeartbeatObserved:
			beats.Events = append(beats.Events, v)
		case wire.CargoArrival:
			families[v.Profile] = true
		}
	}
	for _, tc := range []struct {
		name     string
		sess     Session
		profiles int
	}{
		{"heartbeats only", beats, 0},
		{"cargo of every family", cargo, len(families)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var script []byte
			for _, m := range clientFrames(tc.sess) {
				var err error
				if script, err = wire.Append(script, m); err != nil {
					t.Fatal(err)
				}
			}
			want := len(mustEncode(t, wire.Ack{Seq: 0}))
			decisions := 0
			rp, err := NewReplayer(tc.sess.Hello, radio.GalaxyS43G(), func(m wire.Message) error {
				if _, ok := m.(wire.Decision); ok {
					decisions++
				}
				want += len(mustEncode(t, m))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range clientFrames(tc.sess)[1:] {
				if err := rp.Apply(m); err != nil {
					t.Fatal(err)
				}
			}
			if tc.profiles > 0 && decisions == 0 {
				t.Fatal("the cargo session emits no decision; the test needs one")
			}

			srv := New(Config{})
			conn := &scriptConn{script: script}
			serve := func() {
				conn.rewind()
				if err := srv.ServeConn(conn); err != nil {
					t.Fatal(err)
				}
				if conn.written != want {
					t.Fatalf("session wrote %d bytes, want %d", conn.written, want)
				}
			}
			serve()
			allocs := testing.AllocsPerRun(100, serve)
			if limit := float64(readerStart + tc.profiles); allocs > limit {
				t.Errorf("%v allocations per session, want at most %v: the reader goroutine's start and %d profiles",
					allocs, limit, tc.profiles)
			}
		})
	}
}

// mustEncode encodes m as one frame.
func mustEncode(t *testing.T, m wire.Message) []byte {
	t.Helper()
	b, err := wire.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
