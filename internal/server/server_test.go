package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"etrain/internal/core"
	"etrain/internal/fleet"
	"etrain/internal/sim"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

const (
	testTheta   = 4.0
	testK       = 20
	testHorizon = 2 * time.Minute
)

func testPopulation(t *testing.T) *workload.Population {
	t.Helper()
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// directRun runs the device straight through internal/sim with the same
// strategy parameters a session would build from the Hello.
func directRun(t *testing.T, dev fleet.Device) *sim.Result {
	t.Helper()
	cfg, err := dev.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	strategy, err := core.New(core.Options{Theta: testTheta, K: testK})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = strategy
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// driveLoopback runs one session against srv over net.Pipe and returns
// the outcome, failing the test on either side's error.
func driveLoopback(t *testing.T, srv *Server, sess Session) *DeviceOutcome {
	t.Helper()
	client, serverSide := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(serverSide) }()
	out, err := Drive(client, sess)
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	return out
}

// TestLoopbackEquivalence is the keystone: a device driven through the
// full codec–server–session path must produce decisions and metrics
// byte-identical to the same device run directly through internal/sim.
func TestLoopbackEquivalence(t *testing.T) {
	pop := testPopulation(t)
	srv := New(Config{})
	for i := 0; i < 5; i++ {
		dev, err := fleet.SynthesizeDevice(7, pop, i, testHorizon)
		if err != nil {
			t.Fatal(err)
		}
		res := directRun(t, dev)
		sess, err := SessionFromDevice(dev, testTheta, testK)
		if err != nil {
			t.Fatal(err)
		}
		out := driveLoopback(t, srv, sess)

		// Every transmitted packet, in transmission order, with its exact
		// start instant.
		var got []wire.DecisionEntry
		for _, d := range out.Decisions {
			got = append(got, d.Entries...)
		}
		if len(got) != len(res.Packets) {
			t.Fatalf("device %d: %d wire decisions, %d direct packets", i, len(got), len(res.Packets))
		}
		for j, e := range got {
			p := res.Packets[j]
			if e.ID != uint64(p.ID) || e.Start != p.StartedAt {
				t.Fatalf("device %d packet %d: wire (id %d, start %v), direct (id %d, start %v)",
					i, j, e.ID, e.Start, p.ID, p.StartedAt)
			}
		}
		// Flush marking must match the direct run's forced-flush tail.
		var flushed int
		for _, d := range out.Decisions {
			if d.Flush {
				flushed += len(d.Entries)
			}
		}
		if flushed != res.ForcedFlushCount {
			t.Errorf("device %d: %d flush entries, direct %d", i, flushed, res.ForcedFlushCount)
		}

		// Metrics must match bit for bit — no tolerance.
		m := res.Metrics()
		want := wire.StatsSnapshot{
			DeviceID:       uint64(dev.Index),
			EnergyJ:        m.EnergyJ,
			AvgDelayS:      m.AvgDelayS,
			ViolationRatio: m.ViolationRatio,
			DataPackets:    uint64(m.DataPackets),
			Heartbeats:     uint64(m.Heartbeats),
			ForcedFlush:    uint64(m.ForcedFlush),
		}
		if out.Stats != want {
			t.Errorf("device %d stats:\n got %+v\nwant %+v", i, out.Stats, want)
		}
	}
	if s := srv.Stats(); s.Completed != 5 || s.Errored != 0 || s.Active != 0 {
		t.Errorf("counters after 5 sessions: %+v", s)
	}
}

// TestBackpressureQueueDepth drives a session through a 1-deep event
// queue: correctness must not depend on queue capacity, only throughput.
func TestBackpressureQueueDepth(t *testing.T) {
	pop := testPopulation(t)
	dev, err := fleet.SynthesizeDevice(7, pop, 0, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		t.Fatal(err)
	}
	res := directRun(t, dev)
	out := driveLoopback(t, New(Config{QueueDepth: 1}), sess)
	if got, want := out.Stats.DataPackets, uint64(len(res.Packets)); got != want {
		t.Errorf("queue depth 1: %d data packets, want %d", got, want)
	}
}

// TestJoinReleasesBlockedReader fails a session while its reader is
// blocked sending onto a full queue: with QueueDepth 1, the client's
// first event is a protocol error and 63 more frames follow in the same
// write. ServeConn must still return — the join drains the queue until
// the reader signals — and the server must serve the next session.
func TestJoinReleasesBlockedReader(t *testing.T) {
	srv := New(Config{QueueDepth: 1})
	client, serverSide := net.Pipe()
	defer client.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(serverSide) }()
	w := wire.NewWriter(client)
	r := wire.NewReader(client)
	if err := w.Write(wire.Hello{Theta: 1, K: 2, Horizon: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if err := w.Buffer(wire.CargoArrival{ID: 1, At: time.Second, App: "a", Size: 1, Profile: 99}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 63; i++ {
		if err := w.Buffer(wire.HeartbeatObserved{At: time.Second + time.Duration(i), App: "a", Size: 1}); err != nil {
			t.Fatal(err)
		}
	}
	go w.Flush() // fails once the server closes the conn
	select {
	case err := <-srvErr:
		if err == nil || !strings.Contains(err.Error(), "unknown kind") {
			t.Fatalf("session error %v, want the cargo's unknown profile kind", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeConn did not return: the reader blocked on the full queue was never released")
	}
	sess := testSession(t, 0)
	if out := driveLoopback(t, srv, sess); out.Stats.DeviceID != sess.Hello.DeviceID {
		t.Errorf("next session's stats name device %d, want %d", out.Stats.DeviceID, sess.Hello.DeviceID)
	}
}

// TestConnLimit verifies connections beyond MaxConns are rejected while
// admitted sessions proceed.
func TestConnLimit(t *testing.T) {
	srv := New(Config{MaxConns: 1})
	c1, s1 := net.Pipe()
	defer c1.Close()
	held := make(chan error, 1)
	go func() { held <- srv.ServeConn(s1) }()

	// Wait until the first connection is registered.
	for srv.Stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}
	c2, s2 := net.Pipe()
	defer c2.Close()
	if err := srv.ServeConn(s2); err != ErrServerClosed {
		t.Fatalf("over-limit ServeConn: %v, want ErrServerClosed", err)
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	c1.Close()
	<-held
}

// TestGracefulDrain starts sessions, begins Shutdown mid-protocol, and
// verifies the running sessions complete while new ones are rejected.
func TestGracefulDrain(t *testing.T) {
	pop := testPopulation(t)
	srv := New(Config{})
	dev, err := fleet.SynthesizeDevice(7, pop, 1, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		t.Fatal(err)
	}

	client, serverSide := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(serverSide) }()

	// Handshake first, so the session is mid-protocol when the drain starts.
	w := wire.NewWriter(client)
	r := wire.NewReader(client)
	if err := w.Write(sess.Hello); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	for !srv.draining() {
		time.Sleep(time.Millisecond)
	}

	// New sessions are refused during the drain.
	c2, s2 := net.Pipe()
	defer c2.Close()
	if err := srv.ServeConn(s2); err != ErrServerClosed {
		t.Fatalf("ServeConn during drain: %v, want ErrServerClosed", err)
	}

	// The in-flight session still runs the full protocol. The admission
	// ack was already consumed above, so read to the closing ack here.
	statc := make(chan wire.StatsSnapshot, 1)
	errc := make(chan error, 1)
	go func() {
		var snap wire.StatsSnapshot
		for {
			m, err := r.Next()
			if err != nil {
				errc <- err
				return
			}
			switch v := m.(type) {
			case wire.StatsSnapshot:
				snap = v
			case wire.Ack:
				statc <- snap
				errc <- nil
				return
			}
		}
	}()
	for _, ev := range sess.Events {
		if err := w.Write(ev); err != nil {
			t.Fatalf("event write during drain: %v", err)
		}
	}
	if err := w.Write(wire.Ack{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("reading drained session output: %v", err)
	}
	if snap := <-statc; snap.DeviceID != sess.Hello.DeviceID {
		t.Errorf("drained session stats for device %d, want %d", snap.DeviceID, sess.Hello.DeviceID)
	}
	if err := <-srvErr; err != nil {
		t.Errorf("drained session error: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// TestShutdownForceClose verifies an expired Shutdown context force-closes
// stuck sessions instead of waiting forever.
func TestShutdownForceClose(t *testing.T) {
	srv := New(Config{})
	client, serverSide := net.Pipe()
	defer client.Close()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(serverSide) }()
	for srv.Stats().Active == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("Shutdown: %v, want context.Canceled", err)
	}
	if err := <-srvErr; err == nil {
		t.Error("force-closed session returned nil, want error")
	}
}

// TestServeAcceptLoop exercises the listener path end to end over TCP on
// localhost, including the Serve return on Shutdown.
func TestServeAcceptLoop(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	srv := New(Config{})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	pop := testPopulation(t)
	dev, err := fleet.SynthesizeDevice(7, pop, 2, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drive(conn, sess)
	if err != nil {
		t.Fatalf("Drive over TCP: %v", err)
	}
	if out.Stats.DeviceID != sess.Hello.DeviceID {
		t.Errorf("TCP session stats for device %d, want %d", out.Stats.DeviceID, sess.Hello.DeviceID)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-serveErr; err != ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestProtocolErrors sends malformed sessions and verifies the server
// rejects each with a counted error, without wedging.
func TestProtocolErrors(t *testing.T) {
	// admit performs the handshake, consuming the server's Ack{0} so the
	// following exchange (and any close) is deterministically ordered.
	admit := func(w *wire.Writer, r *wire.Reader, h wire.Hello) error {
		if err := w.Write(h); err != nil {
			return err
		}
		_, err := r.Next()
		return err
	}
	okHello := wire.Hello{Theta: 1, K: 2, Horizon: time.Minute}
	cases := []struct {
		name string
		cfg  Config
		send func(w *wire.Writer, r *wire.Reader) error
		want string
		// closeEarly hangs up right after sending, for the case whose
		// error is the hangup itself.
		closeEarly bool
	}{
		{
			name: "first frame not hello",
			send: func(w *wire.Writer, r *wire.Reader) error { return w.Write(wire.Ack{Seq: 1}) },
			want: "want hello",
		},
		{
			name: "bad hello horizon",
			send: func(w *wire.Writer, r *wire.Reader) error {
				return w.Write(wire.Hello{Theta: 1, K: 2, Horizon: -time.Second})
			},
			want: "horizon",
		},
		{
			name: "bad strategy parameters",
			send: func(w *wire.Writer, r *wire.Reader) error {
				return w.Write(wire.Hello{Theta: -1, K: 2, Horizon: time.Minute})
			},
			want: "hello",
		},
		{
			name: "stale event",
			send: func(w *wire.Writer, r *wire.Reader) error {
				if err := admit(w, r, okHello); err != nil {
					return err
				}
				if err := w.Write(wire.HeartbeatObserved{At: 30 * time.Second, App: "a", Size: 1}); err != nil {
					return err
				}
				return w.Write(wire.HeartbeatObserved{At: time.Second, App: "a", Size: 1})
			},
			want: "arrives after",
		},
		{
			name: "unknown cargo profile",
			send: func(w *wire.Writer, r *wire.Reader) error {
				if err := admit(w, r, okHello); err != nil {
					return err
				}
				return w.Write(wire.CargoArrival{ID: 1, At: time.Second, App: "a", Size: 1, Profile: 99})
			},
			want: "unknown kind",
		},
		{
			name: "decision frame from client",
			send: func(w *wire.Writer, r *wire.Reader) error {
				if err := admit(w, r, okHello); err != nil {
					return err
				}
				return w.Write(wire.Decision{Slot: time.Second})
			},
			want: "unexpected decision",
		},
		{
			// With parking disabled a mid-session hangup is terminal; the
			// default configuration parks instead (see resume_test.go).
			name: "close before finish",
			cfg:  Config{ResumeGrace: -1},
			send: func(w *wire.Writer, r *wire.Reader) error {
				return admit(w, r, okHello)
			},
			want:       "before finish",
			closeEarly: true,
		},
		{
			name: "resume unknown session",
			send: func(w *wire.Writer, r *wire.Reader) error {
				return w.Write(wire.Resume{DeviceID: 9, Token: 9, Got: 0})
			},
			want: "no detached session",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(tc.cfg)
			client, serverSide := net.Pipe()
			srvErr := make(chan error, 1)
			go func() { srvErr <- srv.ServeConn(serverSide) }()
			if err := tc.send(wire.NewWriter(client), wire.NewReader(client)); err != nil {
				t.Fatalf("send: %v", err)
			}
			if tc.closeEarly {
				client.Close()
			}
			err := <-srvErr
			client.Close()
			if err == nil {
				t.Fatal("session error is nil, want protocol error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("session error %q does not mention %q", err, tc.want)
			}
			if s := srv.Stats(); s.Errored != 1 {
				t.Errorf("errored = %d, want 1 (%+v)", s.Errored, s)
			}
		})
	}
}

// TestCountersAccumulate sanity-checks the frame counters over one
// completed session.
func TestCountersAccumulate(t *testing.T) {
	pop := testPopulation(t)
	srv := New(Config{})
	dev, err := fleet.SynthesizeDevice(7, pop, 3, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		t.Fatal(err)
	}
	out := driveLoopback(t, srv, sess)
	s := srv.Stats()
	wantIn := uint64(len(sess.Events)) + 2 // hello + events + finish ack
	if s.FramesIn != wantIn {
		t.Errorf("FramesIn = %d, want %d", s.FramesIn, wantIn)
	}
	wantOut := uint64(len(out.Decisions)) + 3 // admit ack + decisions + stats + final ack
	if s.FramesOut != wantOut {
		t.Errorf("FramesOut = %d, want %d", s.FramesOut, wantOut)
	}
	if s.Decisions != uint64(len(out.Decisions)) {
		t.Errorf("Decisions = %d, want %d", s.Decisions, len(out.Decisions))
	}
}

// TestSessionFromDeviceOrdersEvents verifies the replay stream is
// time-ordered — the property the engine's staleness guard relies on.
func TestSessionFromDeviceOrdersEvents(t *testing.T) {
	pop := testPopulation(t)
	for i := 0; i < 3; i++ {
		dev, err := fleet.SynthesizeDevice(11, pop, i, testHorizon)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := SessionFromDevice(dev, testTheta, testK)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(sess.Events); j++ {
			if eventAt(sess.Events[j]) < eventAt(sess.Events[j-1]) {
				t.Fatalf("device %d: event %d at %d precedes event %d at %d",
					i, j, eventAt(sess.Events[j]), j-1, eventAt(sess.Events[j-1]))
			}
		}
	}
}

// TestLogfReceivesErrors verifies the injected logger observes session
// failures.
func TestLogfReceivesErrors(t *testing.T) {
	logged := make(chan string, 1)
	srv := New(Config{Logf: func(format string, args ...any) {
		select {
		case logged <- fmt.Sprintf(format, args...):
		default:
		}
	}})
	client, serverSide := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(serverSide) }()
	w := wire.NewWriter(client)
	if err := w.Write(wire.Ack{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if err := <-srvErr; err == nil {
		t.Fatal("want session error")
	}
	select {
	case msg := <-logged:
		if !strings.Contains(msg, "hello") {
			t.Errorf("logged %q, want mention of hello", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("logger never called")
	}
}
