//go:build !race

// Under -race, sync.Pool drops items at random, so the pooled run state
// misses and the count below would wander.

package client

import (
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"etrain/internal/radio"
	"etrain/internal/server"
	"etrain/internal/wire"
)

// scriptConn is a net.Conn that allocates nothing itself: it serves a
// pre-encoded server stream from a reusable buffer and discards what is
// written to it. rewind readies it for the next run.
type scriptConn struct {
	script []byte
	off    int
}

func (c *scriptConn) rewind() { c.off = 0 }

func (c *scriptConn) Read(p []byte) (int, error) {
	if c.off == len(c.script) {
		return 0, io.EOF
	}
	n := copy(p, c.script[c.off:])
	c.off += n
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// TestRunAllocatesOnlyItsOutcome pins the steady state of a clean run:
// once one run has warmed the pooled state, client.Run over a scripted
// server stream allocates the Outcome, its Decisions, one array of their
// Entries and the start of its exchange's reader goroutine, nothing else.
// The outcome must match the direct replay the script was encoded from.
func TestRunAllocatesOnlyItsOutcome(t *testing.T) {
	const (
		outcome     = 1
		decisions   = 1
		entries     = 1
		readerStart = 1
	)
	sess := testSession(t, 1)
	script, err := wire.Encode(wire.Ack{Seq: 0})
	if err != nil {
		t.Fatal(err)
	}
	want := &server.DeviceOutcome{}
	rp, err := server.NewReplayer(sess.Hello, radio.GalaxyS43G(), func(m wire.Message) error {
		switch v := m.(type) {
		case wire.Decision:
			want.Decisions = append(want.Decisions, v)
		case wire.StatsSnapshot:
			want.Stats = v
		}
		script, err = wire.Append(script, m)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(sess.Events, wire.Ack{Seq: uint64(len(sess.Events)) + 1}) {
		if err := rp.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	if len(want.Decisions) == 0 {
		t.Fatal("the session emits no decision; the test needs one")
	}

	conn := &scriptConn{script: script}
	cfg := Config{Dial: func() (net.Conn, error) {
		conn.rewind()
		return conn, nil
	}}
	out, err := Run(cfg, sess)
	if err != nil {
		t.Fatal(err)
	}
	if out.Attempts != 1 || out.Degraded || !reflect.DeepEqual(out.Decisions, want.Decisions) || out.Stats != want.Stats {
		t.Fatalf("run outcome %+v, want the direct replay's %+v", out, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		out, err := Run(cfg, sess)
		if err != nil {
			t.Fatal(err)
		}
		if out.Attempts != 1 || len(out.Decisions) != len(want.Decisions) || out.Stats != want.Stats {
			t.Fatalf("run outcome %+v, want the direct replay's %+v", out, want)
		}
	})
	if limit := float64(outcome + decisions + entries + readerStart); allocs > limit {
		t.Errorf("%v allocations per run, want at most %v: the Outcome, its Decisions and Entries, and the reader goroutine's start",
			allocs, limit)
	}
}
