package client

import (
	"fmt"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"etrain/internal/fleet"
	"etrain/internal/server"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

const (
	testTheta   = 4.0
	testK       = 20
	testHorizon = 2 * time.Minute
)

// testSession synthesizes one device's wire replay.
func testSession(t *testing.T, index int) server.Session {
	t.Helper()
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := fleet.SynthesizeDevice(7, pop, index, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := server.SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// baseline runs the session over a clean loopback with the reference
// Drive client.
func baseline(t *testing.T, sess server.Session) *server.DeviceOutcome {
	t.Helper()
	srv := server.New(server.Config{})
	c, sconn := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn) }()
	out, err := server.Drive(c, sess)
	if err != nil {
		t.Fatalf("baseline Drive: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("baseline ServeConn: %v", err)
	}
	return out
}

// loopbackDialer dials srv over in-process pipes, wrapping each client
// side through wrap (nil for pass-through).
func loopbackDialer(srv *server.Server, wrap func(attempt int, c net.Conn) net.Conn) func() (net.Conn, error) {
	attempt := new(atomic.Int64)
	return func() (net.Conn, error) {
		c, sconn := net.Pipe()
		go srv.ServeConn(sconn)
		if wrap != nil {
			return wrap(int(attempt.Add(1)), c), nil
		}
		attempt.Add(1)
		return c, nil
	}
}

// assertEquivalent fails unless the resilient outcome matches the clean
// baseline frame for frame.
func assertEquivalent(t *testing.T, got *Outcome, want *server.DeviceOutcome) {
	t.Helper()
	if len(got.Decisions) != len(want.Decisions) {
		t.Fatalf("decisions: %d, baseline %d", len(got.Decisions), len(want.Decisions))
	}
	for i := range got.Decisions {
		if !reflect.DeepEqual(got.Decisions[i], want.Decisions[i]) {
			t.Fatalf("decision %d:\n got %+v\nwant %+v", i, got.Decisions[i], want.Decisions[i])
		}
	}
	if got.Stats != want.Stats {
		t.Fatalf("stats:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
}

// waitFor polls cond briefly: server-side counters settle a moment
// after the client observes its final ack.
func waitFor(t *testing.T, cond func() bool, msg func() string) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Error(msg())
}

// limitConn kills the connection (both directions, underlying close)
// once it has delivered the encoded bytes of a session's first N client
// frames, simulating a transport that dies mid-stream. The cut is
// counted in frames, not Write calls, so it lands on the same frame
// boundary however the client batches its writes.
type limitConn struct {
	net.Conn
	left int // bytes still deliverable
}

// cutAfterFrames wraps c to deliver only the first n client frames of
// sess: the Hello, then events, then the finish ack.
func cutAfterFrames(t *testing.T, c net.Conn, sess server.Session, n int) *limitConn {
	t.Helper()
	frames := append([]wire.Message{sess.Hello}, sess.Events...)
	frames = append(frames, wire.Ack{Seq: uint64(len(sess.Events)) + 1})
	if n >= len(frames) {
		t.Fatalf("cut after %d frames of a %d-frame session never fires", n, len(frames))
	}
	lc := &limitConn{Conn: c}
	for _, m := range frames[:n] {
		b, err := wire.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		lc.left += len(b)
	}
	return lc
}

func (c *limitConn) Write(p []byte) (int, error) {
	if len(p) <= c.left {
		c.left -= len(p)
		return c.Conn.Write(p)
	}
	n := 0
	if c.left > 0 {
		n, _ = c.Conn.Write(p[:c.left])
		c.left = 0
	}
	c.Conn.Close()
	return n, net.ErrClosed
}

// TestCleanRunMatchesDrive verifies the resilient client over a healthy
// transport is indistinguishable from the reference Drive client.
func TestCleanRunMatchesDrive(t *testing.T) {
	for i := 0; i < 3; i++ {
		sess := testSession(t, i)
		want := baseline(t, sess)
		srv := server.New(server.Config{})
		out, err := Run(Config{Dial: loopbackDialer(srv, nil)}, sess)
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		assertEquivalent(t, out, want)
		if out.Attempts != 1 || out.Reconnects != 0 || out.Resumes != 0 || out.Degraded {
			t.Errorf("device %d clean run stats: %+v", i, out)
		}
	}
}

// TestCutSessionResumes kills the first connection a few frames in and
// verifies the client resumes the parked server session with zero
// decision loss.
func TestCutSessionResumes(t *testing.T) {
	sess := testSession(t, 0)
	want := baseline(t, sess)
	// The device-0 session is 6 client frames (Hello + 4 events + finish
	// ack); every cut below that lands mid-stream. A subtest's N counts
	// the client frames written before the cut.
	for _, frames := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("writes_%d", frames), func(t *testing.T) {
			srv := server.New(server.Config{})
			dial := loopbackDialer(srv, func(attempt int, c net.Conn) net.Conn {
				if attempt == 1 {
					return cutAfterFrames(t, c, sess, frames)
				}
				return c
			})
			// A real Sleep matters here: the client sees the cut (its own
			// write fails) before the server does, so the first Resume can
			// race the park; the backed-off retry needs actual wall time.
			out, err := Run(Config{
				Dial:        dial,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  20 * time.Millisecond,
				Sleep:       time.Sleep,
			}, sess)
			if err != nil {
				t.Fatal(err)
			}
			assertEquivalent(t, out, want)
			if out.Reconnects < 1 || out.Resumes < 1 {
				t.Errorf("cut run never resumed: %+v", out)
			}
			waitFor(t, func() bool {
				s := srv.Stats()
				return s.Parked >= 1 && s.Resumed >= 1 && s.Completed == 1
			}, func() string { return fmt.Sprintf("server counters never settled: %+v", srv.Stats()) })
		})
	}
}

// TestResumeRefusedFallsBackToReplay runs against a server with parking
// disabled: the resume handshake dies, and the client must heal with a
// full Hello replay, discarding regenerated duplicates.
func TestResumeRefusedFallsBackToReplay(t *testing.T) {
	sess := testSession(t, 1)
	want := baseline(t, sess)
	srv := server.New(server.Config{ResumeGrace: -1})
	dial := loopbackDialer(srv, func(attempt int, c net.Conn) net.Conn {
		if attempt == 1 {
			return cutAfterFrames(t, c, sess, 6)
		}
		return c
	})
	out, err := Run(Config{Dial: dial}, sess)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, out, want)
	if out.Replays < 1 {
		t.Errorf("refused resume never fell back to full replay: %+v", out)
	}
	if out.Resumes != 0 {
		t.Errorf("resumes = %d against a no-resume server", out.Resumes)
	}
}

// TestUnreachableServerDegrades verifies a client that can never dial
// completes the session entirely through local scheduling, with
// decisions identical to the server's.
func TestUnreachableServerDegrades(t *testing.T) {
	sess := testSession(t, 2)
	want := baseline(t, sess)
	dials := 0
	out, err := Run(Config{
		Dial:        func() (net.Conn, error) { dials++; return nil, net.ErrClosed },
		MaxAttempts: 2,
		RetryEvery:  50,
	}, sess)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, out, want)
	if !out.Degraded || out.DegradedStints < 1 || out.DegradedEvents == 0 {
		t.Errorf("unreachable run not marked degraded: %+v", out)
	}
	if dials != out.Attempts {
		t.Errorf("attempts = %d, dial calls = %d", out.Attempts, dials)
	}
}

// TestDegradeThenReconcile is the full healing arc: admitted, cut,
// unreachable long enough to degrade, then the server comes back and a
// mid-stint probe reconciles via Resume — with the client ahead of the
// parked server session, exercising the server's suppression of frames
// the client already generated locally.
func TestDegradeThenReconcile(t *testing.T) {
	sess := testSession(t, 0)
	want := baseline(t, sess)
	srv := server.New(server.Config{})
	attempt := new(atomic.Int64)
	dial := func() (net.Conn, error) {
		switch n := attempt.Add(1); {
		case n == 1:
			// Admitted, then cut after the Hello and two events.
			c, sconn := net.Pipe()
			go srv.ServeConn(sconn)
			return cutAfterFrames(t, c, sess, 3), nil
		case n == 2:
			return nil, net.ErrClosed
		default:
			c, sconn := net.Pipe()
			go srv.ServeConn(sconn)
			return c, nil
		}
	}
	out, err := Run(Config{
		Dial:        dial,
		MaxAttempts: 2,
		RetryEvery:  2,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Sleep:       time.Sleep,
	}, sess)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, out, want)
	if !out.Degraded {
		t.Errorf("run never degraded: %+v", out)
	}
	if out.Resumes < 1 {
		t.Errorf("reconciliation never resumed: %+v", out)
	}
	waitFor(t, func() bool { return srv.Stats().Resumed >= 1 },
		func() string { return fmt.Sprintf("server never counted the resume: %+v", srv.Stats()) })
}

// TestBackoffDeterministic verifies the reconnect backoff schedule is a
// pure function of the seed, exponential, jittered and capped.
func TestBackoffDeterministic(t *testing.T) {
	sess := testSession(t, 1)
	schedule := func(seed int64) []time.Duration {
		var slept []time.Duration
		attempt := 0
		srv := server.New(server.Config{})
		dial := func() (net.Conn, error) {
			attempt++
			if attempt <= 6 {
				return nil, net.ErrClosed
			}
			c, sconn := net.Pipe()
			go srv.ServeConn(sconn)
			return c, nil
		}
		out, err := Run(Config{
			Dial:        dial,
			Seed:        seed,
			MaxAttempts: 10,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  40 * time.Millisecond,
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		}, sess)
		if err != nil {
			t.Fatal(err)
		}
		if out.Degraded {
			t.Fatalf("run degraded before exhausting backoff: %+v", out)
		}
		return slept
	}
	a := schedule(3)
	b := schedule(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different backoff schedules:\n%v\n%v", a, b)
	}
	c := schedule(4)
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds, identical backoff schedules: %v", a)
	}
	if len(a) != 6 {
		t.Fatalf("6 failed dials slept %d times", len(a))
	}
	for i, d := range a {
		base := 10 * time.Millisecond << uint(i)
		if base > 40*time.Millisecond {
			base = 40 * time.Millisecond
		}
		if d < base/2 || d > base {
			t.Errorf("backoff %d = %v outside [%v, %v]", i, d, base/2, base)
		}
	}
}
