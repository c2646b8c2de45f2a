package server

import (
	"net"
	"strings"
	"testing"
	"time"

	"etrain/internal/fleet"
	"etrain/internal/sched"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

// panicStrategy explodes inside Schedule, standing in for a buggy
// scheduling policy hosted by a session.
type panicStrategy struct{}

func (panicStrategy) Name() string                                  { return "panic" }
func (panicStrategy) SlotLength() time.Duration                     { return time.Second }
func (panicStrategy) Schedule(*sched.SlotContext) []workload.Packet { panic("strategy exploded") }

// TestPanicIsolation swaps in a strategy that panics mid-slot and checks
// the blast radius: the panicking session errors out and is counted,
// while a healthy concurrent session on the same server completes.
func TestPanicIsolation(t *testing.T) {
	orig := newStrategy
	newStrategy = func(h wire.Hello, prev sched.Strategy) (sched.Strategy, error) {
		if h.DeviceID == 666 {
			return panicStrategy{}, nil
		}
		return orig(h, prev)
	}
	defer func() { newStrategy = orig }()

	srv := New(Config{})

	// The doomed session: its first heartbeat advances the engine into the
	// panicking Schedule call.
	client, serverSide := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(serverSide) }()
	w := wire.NewWriter(client)
	r := wire.NewReader(client)
	if err := w.Write(wire.Hello{DeviceID: 666, Theta: 1, K: 2, Horizon: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(wire.HeartbeatObserved{At: 30 * time.Second, App: "a", Size: 1}); err != nil {
		t.Fatal(err)
	}
	err := <-srvErr
	client.Close()
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("session error %v, want recovered panic", err)
	}
	if s := srv.Stats(); s.Panics != 1 {
		t.Errorf("panics = %d, want 1 (%+v)", s.Panics, s)
	}

	// The server is still healthy: a normal session completes.
	pop := testPopulation(t)
	dev, err := fleet.SynthesizeDevice(7, pop, 0, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		t.Fatal(err)
	}
	out := driveLoopback(t, srv, sess)
	if out.Stats.DeviceID != sess.Hello.DeviceID {
		t.Errorf("survivor session stats for device %d, want %d", out.Stats.DeviceID, sess.Hello.DeviceID)
	}
	if s := srv.Stats(); s.Completed != 1 || s.Panics != 1 {
		t.Errorf("counters after panic + survivor: %+v", s)
	}
}

// panicWriteConn panics on Write, standing in for a hostile transport
// failing under the session's own goroutine (the processor writes; a
// reader-goroutine panic is out of recovery scope, which is why the
// reader does nothing beyond wire.Reader.Next, itself fuzz-proven
// panic-free on arbitrary bytes).
type panicWriteConn struct {
	net.Conn
}

func (c panicWriteConn) Write([]byte) (int, error) { panic("write path exploded") }

// TestWritePanicRecovered pins the processor-side recovery: a panicking
// Write — hit when acking the Hello — is recovered and counted.
func TestWritePanicRecovered(t *testing.T) {
	srv := New(Config{})
	client, serverSide := net.Pipe()
	defer client.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(panicWriteConn{Conn: serverSide}) }()
	w := wire.NewWriter(client)
	if err := w.Write(wire.Hello{Theta: 1, K: 2, Horizon: time.Minute}); err != nil {
		t.Fatal(err)
	}
	err := <-srvErr
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("session error %v, want recovered panic", err)
	}
	if s := srv.Stats(); s.Panics != 1 || s.Errored != 1 {
		t.Errorf("counters = %+v, want 1 panic, 1 errored", s)
	}
}
