package server

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"etrain/internal/core"
	"etrain/internal/fleet"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/wire"
)

// replayFrames resets rp for sess, replays the session's events and
// finish Ack through it, and returns every frame rp emits.
func replayFrames(rp *Replayer, sess Session) ([]wire.Message, error) {
	var frames []wire.Message
	err := rp.reset(sess.Hello, radio.GalaxyS43G(), funcSink(func(m wire.Message) error {
		frames = append(frames, m)
		return nil
	}))
	if err != nil {
		return nil, err
	}
	for _, m := range sess.Events {
		if err := rp.Apply(m); err != nil {
			return nil, err
		}
	}
	if err := rp.Apply(wire.Ack{Seq: uint64(len(sess.Events)) + 1}); err != nil {
		return nil, err
	}
	return frames, nil
}

// cacheKey names a profile-cache entry by what defines a profile.
type cacheKey struct {
	kind     profile.Kind
	deadline time.Duration
}

// profileCache lists rp's cached profiles by kind and deadline.
func profileCache(rp *Replayer) (keys [profile.KindCloud]cacheKey) {
	for i, p := range rp.profiles {
		if p != nil {
			kind, _ := profile.KindOf(p)
			keys[i] = cacheKey{kind, p.Deadline()}
		}
	}
	return keys
}

// reuseSession synthesizes session i of the reuse test. The index picks
// the device and spreads the Hello over Θ ∈ {0, 4, 10}, k ∈ {1, 20, ∞} and
// 2- and 10-minute horizons; every cargo deadline is scaled by 1, 2 or 3,
// changing fastest, so consecutive sessions name different profiles of
// each family.
func reuseSession(t *testing.T, i int) Session {
	t.Helper()
	thetas := []float64{0, 4, 10}
	ks := []int{1, 20, core.KInfinite}
	horizons := []time.Duration{2 * time.Minute, 10 * time.Minute}
	dev, err := fleet.SynthesizeDevice(11, testPopulation(t), i, horizons[(i/27)%2])
	if err != nil {
		t.Fatal(err)
	}
	sess, err := SessionFromDevice(dev, thetas[(i/3)%3], ks[(i/9)%3])
	if err != nil {
		t.Fatal(err)
	}
	for j, m := range sess.Events {
		if c, ok := m.(wire.CargoArrival); ok {
			c.Deadline *= time.Duration(1 + i%3)
			sess.Events[j] = c
		}
	}
	return sess
}

// abandon starts sess on rp and walks away mid-session: emit panics on
// the first Decision, as a broken transport's write can, so the replayer
// stops with decisions pending and profiles cached and, unless the first
// decision came with the finish, the engine mid-run with events buffered.
func abandon(t *testing.T, rp *Replayer, sess Session) {
	t.Helper()
	err := rp.reset(sess.Hello, radio.GalaxyS43G(), funcSink(func(m wire.Message) error {
		if _, ok := m.(wire.Decision); ok {
			panic("abandoned")
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	frames := append(sess.Events, wire.Ack{Seq: uint64(len(sess.Events)) + 1})
	for _, m := range frames {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			if err := rp.Apply(m); err != nil {
				t.Fatalf("abandoned session: %v", err)
			}
			return false
		}()
		if panicked {
			if len(rp.pending) == 0 {
				t.Fatal("abandoned session left no decision pending")
			}
			return
		}
	}
	t.Fatal("abandoned session emitted no decision")
}

// TestReplayerReuseLeaksNoState re-initialises one Replayer, as the pool
// does, across 216 synthesized sessions whose Hellos and cargo deadlines
// vary (reuseSession), every fourth followed by a session abandoned
// mid-run. Each session must emit exactly the frames a fresh Replayer
// emits, and end with the profile cache a fresh one ends with: a stale
// cached profile changes no frame, only what the session allocates.
func TestReplayerReuseLeaksNoState(t *testing.T) {
	const sessions = 216
	reused := newReplayer()
	var kinds [len(reused.profiles)]int
	for i := 0; i < sessions; i++ {
		sess := reuseSession(t, i)
		label := fmt.Sprintf("session %d (Θ %v, k %d, horizon %v)", i, sess.Hello.Theta, sess.Hello.K, sess.Hello.Horizon)
		fresh := newReplayer()
		want, err := replayFrames(fresh, sess)
		if err != nil {
			t.Fatalf("%s, fresh replayer: %v", label, err)
		}
		got, err := replayFrames(reused, sess)
		if err != nil {
			t.Fatalf("%s, reused replayer: %v", label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a reused replayer emits %d frames, a fresh one %d; they differ", label, len(got), len(want))
		}
		if got, want := profileCache(reused), profileCache(fresh); got != want {
			t.Fatalf("%s: reused replayer's profile cache %v, fresh one's %v", label, got, want)
		}
		for j, key := range profileCache(fresh) {
			if key.deadline != 0 {
				kinds[j]++
			}
		}
		if i%4 == 3 {
			abandon(t, reused, reuseSession(t, sessions+i))
		}
	}
	for j, n := range kinds {
		if n == 0 {
			t.Errorf("no session carried cargo of profile kind %d", j+int(profile.KindMail))
		}
	}
}

// TestPooledQueueReturnsEmpty fills a connection's pooled event queue, as
// a session that ends before its processor reads its frames leaves it,
// and checks that putConnBufs drains the queue before pooling it: the
// next session's first frame must be its own Hello.
func TestPooledQueueReturnsEmpty(t *testing.T) {
	cb := getConnBufs(nil)
	for i := 0; i < cap(cb.events); i++ {
		cb.events <- inbound{typ: wire.TypeAck, ack: wire.Ack{Seq: uint64(i)}}
	}
	putConnBufs(cb)
	if n := len(cb.events); n != 0 {
		t.Fatalf("a pooled event queue holds %d events of an earlier session", n)
	}
}

// TestPooledSessionReuse serves sessions back to back over net.Pipe so
// that each takes the session, journal and replayer the one before it
// pooled: a short session after a longer one with more decisions, then
// one after a parked-then-resumed session, then a clean one. Each short
// session is cut before its last event, parks, and resumes with
// Resume{Got: 0}, so the server replays its whole journal: the stream
// must be exactly a fresh replayer's frames, which a journal holding an
// earlier session's frames would break. After each session the pooled
// replayer's entries arena must hold that session's entries alone. The
// test runs at GOMAXPROCS 1 so each pool hands back what was just put.
func TestPooledSessionReuse(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dev, err := fleet.SynthesizeDevice(7, testPopulation(t), 3, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	long, err := SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{})
	fresh := func(sess Session) []wire.Message {
		t.Helper()
		frames, err := replayFrames(newReplayer(), sess)
		if err != nil {
			t.Fatal(err)
		}
		return frames
	}
	// arenaHolds checks the pooled replayer that served sess: its arena
	// must hold exactly sess's decision entries.
	arenaHolds := func(sess Session, frames []wire.Message) {
		t.Helper()
		rp := replayerPool.Get().(*Replayer)
		defer replayerPool.Put(rp)
		if rp.deviceID != sess.Hello.DeviceID {
			return // the pool dropped it (it may, under -race)
		}
		entries := 0
		for _, d := range decisionsOf(frames) {
			entries += len(d.Entries)
		}
		if len(rp.entries) != entries {
			t.Errorf("device %d: the pooled replayer's arena holds %d entries after a session of %d", sess.Hello.DeviceID, len(rp.entries), entries)
		}
	}

	out := driveLoopback(t, srv, long)
	want := fresh(long)
	if got := decisionsOf(want); !reflect.DeepEqual(out.Decisions, got) {
		t.Fatalf("long session: %d decisions, a fresh replayer's %d", len(out.Decisions), len(got))
	}
	arenaHolds(long, want)
	prev := want
	for _, i := range []int{1, 2} {
		sess := testSession(t, i)
		want := fresh(sess)
		if i == 1 && (len(decisionsOf(want)) >= len(decisionsOf(prev)) || len(want) >= len(prev)) {
			t.Fatalf("session %d has %d frames and %d decisions, the long one %d and %d; it must follow a longer journal",
				i, len(want), len(decisionsOf(want)), len(prev), len(decisionsOf(prev)))
		}
		cut := len(sess.Events) - 1
		if framesBefore(t, sess, cut) == 0 {
			t.Fatalf("session %d emits no frame before its cut; the journal replay would be empty", i)
		}
		admitAndCut(t, srv, sess, cut)
		got := resumeFromStart(t, srv, sess)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %d: the resumed session streams %d frames, a fresh replayer %d; they differ", i, len(got), len(want))
		}
		arenaHolds(sess, want)
		prev = want
	}
	sess := testSession(t, 4)
	want = fresh(sess)
	out = driveLoopback(t, srv, sess)
	if got := decisionsOf(want); !reflect.DeepEqual(out.Decisions, got) || out.Stats != statsOf(t, want) {
		t.Fatalf("clean session after a resumed one: %d decisions, a fresh replayer's %d", len(out.Decisions), len(got))
	}
	arenaHolds(sess, want)
}

// framesBefore counts the frames a fresh replayer emits for sess's first
// n events.
func framesBefore(t *testing.T, sess Session, n int) int {
	t.Helper()
	frames := 0
	rp := newReplayer()
	err := rp.reset(sess.Hello, radio.GalaxyS43G(), funcSink(func(wire.Message) error {
		frames++
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sess.Events[:n] {
		if err := rp.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// resumeFromStart resumes sess's parked session with Resume{Got: 0},
// resends its events and finish Ack, and returns every frame the server
// sends after its ResumeOK up to the first Ack: the session's whole
// stream. It hangs up before waiting for the server, so a stream that
// ends early cannot stall the test.
func resumeFromStart(t *testing.T, srv *Server, sess Session) []wire.Message {
	t.Helper()
	c, sconn := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn) }()
	w := wire.NewWriter(c)
	r := wire.NewReader(c)
	if err := w.Write(wire.Resume{DeviceID: sess.Hello.DeviceID, Token: wire.SessionToken(sess.Hello), Got: 0}); err != nil {
		t.Fatal(err)
	}
	m, err := r.Next()
	ok, is := m.(wire.ResumeOK)
	if err != nil || !is {
		t.Fatalf("resume answer %v (%v), want resume_ok", m, err)
	}
	frames := make(chan []wire.Message, 1)
	go func() {
		var got []wire.Message
		for {
			m, err := r.Next()
			if err != nil {
				break
			}
			got = append(got, m)
			if _, final := m.(wire.Ack); final {
				break
			}
		}
		frames <- got
	}()
	writeErr := make(chan error, 1)
	go func() {
		for _, ev := range clientFrames(sess)[1+ok.Got:] {
			if err := w.Write(ev); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()
	got := <-frames
	c.Close()
	<-writeErr
	<-srvErr
	return got
}
