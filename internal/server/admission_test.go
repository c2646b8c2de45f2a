package server

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"etrain/internal/fleet"
	"etrain/internal/wire"
)

// fakeClock is a mutex-guarded manual clock for admission tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestTokenBucketAdmitHello pins the bucket arithmetic: Burst admissions
// back to back, refusal with the configured hint once dry, refill at
// Rate under the injected clock, and a cap at Burst after long idleness.
func TestTokenBucketAdmitHello(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	a := NewTokenBucketAdmission(TokenBucketConfig{
		Rate: 2, Burst: 3, RetryAfter: 75 * time.Millisecond, Clock: clk.Now,
	})
	h := wire.Hello{DeviceID: 1}
	for i := 0; i < 3; i++ {
		if ok, _ := a.AdmitHello(h); !ok {
			t.Fatalf("admission %d refused within burst", i)
		}
	}
	ok, ra := a.AdmitHello(h)
	if ok {
		t.Fatal("fourth hello admitted on an empty bucket")
	}
	if ra != 75*time.Millisecond {
		t.Errorf("retry-after hint %v, want 75ms", ra)
	}
	// Rate 2/s: half a second buys one token back.
	clk.Advance(500 * time.Millisecond)
	if ok, _ := a.AdmitHello(h); !ok {
		t.Error("hello refused after refill interval")
	}
	if ok, _ := a.AdmitHello(h); ok {
		t.Error("second hello admitted on a single refilled token")
	}
	// An hour of idleness fills to Burst, never past it.
	clk.Advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := a.AdmitHello(h); ok {
			admitted++
		}
	}
	if admitted != 3 {
		t.Errorf("admitted %d after long idle, want the burst cap 3", admitted)
	}
}

// TestTokenBucketClocklessIsFixedBudget: with no clock the bucket never
// refills, so tests get a deterministic fixed admission budget.
func TestTokenBucketClocklessIsFixedBudget(t *testing.T) {
	a := NewTokenBucketAdmission(TokenBucketConfig{Rate: 100, Burst: 2})
	admitted := 0
	for i := 0; i < 5; i++ {
		if ok, _ := a.AdmitHello(wire.Hello{}); ok {
			admitted++
		}
	}
	if admitted != 2 {
		t.Errorf("clockless bucket admitted %d, want exactly Burst 2", admitted)
	}
}

// TestTokenBucketShedCargo pins the deadline-aware shedding rule: no
// shedding below the high-water mark, and above it only work whose
// deadline survives a deferred retry (a Deadline longer than RetryAfter)
// is shed.
func TestTokenBucketShedCargo(t *testing.T) {
	a := NewTokenBucketAdmission(TokenBucketConfig{
		RetryAfter: 50 * time.Millisecond, HighWater: 8,
	})
	h := wire.Hello{DeviceID: 1}
	slack := wire.CargoArrival{ID: 1, Deadline: time.Minute}
	urgent := wire.CargoArrival{ID: 2, Deadline: 20 * time.Millisecond}

	if shed, _ := a.ShedCargo(h, slack, 7); shed {
		t.Error("shed below the high-water mark")
	}
	if shed, ra := a.ShedCargo(h, slack, 8); !shed || ra != 50*time.Millisecond {
		t.Errorf("slack-deadline cargo at high water: shed=%v ra=%v, want true/50ms", shed, ra)
	}
	if shed, _ := a.ShedCargo(h, urgent, 64); shed {
		t.Error("shed cargo whose deadline a deferred retry would miss")
	}

	off := NewTokenBucketAdmission(TokenBucketConfig{})
	if shed, _ := off.ShedCargo(h, slack, 1<<20); shed {
		t.Error("HighWater 0 must disable shedding")
	}

	// The policy etraind -admission-highwater builds sets only HighWater
	// and RetryAfter: the floor is RetryAfter itself.
	daemon := NewTokenBucketAdmission(TokenBucketConfig{
		Rate: 10, Burst: 4, RetryAfter: 2 * time.Second, HighWater: 8,
	})
	atFloor := wire.CargoArrival{ID: 3, Deadline: 2 * time.Second}
	pastFloor := wire.CargoArrival{ID: 4, Deadline: 2*time.Second + time.Millisecond}
	if shed, _ := daemon.ShedCargo(h, atFloor, 64); shed {
		t.Error("shed cargo whose deadline is no longer than RetryAfter")
	}
	if shed, ra := daemon.ShedCargo(h, pastFloor, 64); !shed || ra != 2*time.Second {
		t.Errorf("cargo with a deadline past RetryAfter at high water: shed=%v ra=%v, want true/2s", shed, ra)
	}
}

// TestAdmissionRefusedHello drives a Hello into a server whose policy is
// out of tokens: the client must read an explicit Busy{ReasonConns}, and
// the outcome must count as Refused — not Errored — with the counter
// ledger still balancing.
func TestAdmissionRefusedHello(t *testing.T) {
	srv := New(Config{
		Admission: NewTokenBucketAdmission(TokenBucketConfig{
			Burst: 1, RetryAfter: 80 * time.Millisecond,
		}),
	})
	// First session spends the only token and completes normally.
	sess := sessionForDevice(t, 0)
	driveLoopback(t, srv, sess)

	// Second Hello is refused with an explicit Busy.
	client, sconn := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn) }()
	w := wire.NewWriter(client)
	if err := w.Write(sessionForDevice(t, 1).Hello); err != nil {
		t.Fatalf("writing hello: %v", err)
	}
	m, err := wire.NewReader(client).Next()
	if err != nil {
		t.Fatalf("reading refusal: %v", err)
	}
	b, isBusy := m.(wire.Busy)
	if !isBusy {
		t.Fatalf("refusal frame is %s, want busy", m.MsgType())
	}
	if b.Reason != wire.ReasonConns || b.RetryAfter != 80*time.Millisecond {
		t.Errorf("busy = %+v, want reason conns, retry-after 80ms", b)
	}
	if err := <-srvErr; !errorsIsHelloRefused(err) {
		t.Fatalf("ServeConn after refusal: %v, want the hello-refused outcome", err)
	}
	client.Close()

	st := srv.Stats()
	if st.Refused != 1 || st.BusySent != 1 {
		t.Errorf("refused %d busy-sent %d, want 1/1", st.Refused, st.BusySent)
	}
	if st.Completed != 1 || st.Errored != 0 || st.Rejected != 0 {
		t.Errorf("completed %d errored %d rejected %d, want 1/0/0", st.Completed, st.Errored, st.Rejected)
	}
	checkCountersConsistent(t, st)
}

// TestBusyAtLameDuck: with admission configured, a lame-ducking server
// answers the connection with Busy{ReasonLameDuck} before closing
// instead of the legacy silent close — and still counts it Rejected.
func TestBusyAtLameDuck(t *testing.T) {
	srv := New(Config{
		Admission: NewTokenBucketAdmission(TokenBucketConfig{RetryAfter: 60 * time.Millisecond}),
	})
	srv.SetLameDuck(true)
	client, sconn := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn) }()
	if err := <-srvErr; err != ErrServerClosed {
		t.Fatalf("ServeConn while lame-ducking: %v, want ErrServerClosed", err)
	}
	m, err := wire.NewReader(client).Next()
	if err != nil {
		t.Fatalf("reading lame-duck refusal: %v", err)
	}
	b, isBusy := m.(wire.Busy)
	if !isBusy || b.Reason != wire.ReasonLameDuck {
		t.Fatalf("refusal frame %#v, want busy{lame-duck}", m)
	}
	client.Close()
	waitStats(t, srv, func(c Counters) bool { return c.BusySent == 1 })
	st := srv.Stats()
	if st.Rejected != 1 {
		t.Errorf("rejected %d, want 1", st.Rejected)
	}
	checkCountersConsistent(t, st)
}

// TestBusyAtMaxConns holds a session open on a MaxConns=1 server: the
// next connection must be refused with Busy{ReasonConns} while the
// refusal still lands in Rejected.
func TestBusyAtMaxConns(t *testing.T) {
	srv := New(Config{
		MaxConns:  1,
		Admission: NewTokenBucketAdmission(TokenBucketConfig{Burst: 16}),
	})
	// Occupy the only slot with a half-open session.
	hold, holdSrv := net.Pipe()
	go srv.ServeConn(holdSrv)
	hw := wire.NewWriter(hold)
	if err := hw.Write(sessionForDevice(t, 0).Hello); err != nil {
		t.Fatalf("opening holder session: %v", err)
	}
	hr := wire.NewReader(hold)
	if m, err := hr.Next(); err != nil {
		t.Fatalf("holder admission: %v", err)
	} else if a, ok := m.(wire.Ack); !ok || a.Seq != 0 {
		t.Fatalf("holder admission frame %#v, want ack{0}", m)
	}

	over, overSrv := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(overSrv) }()
	if err := <-srvErr; err != ErrServerClosed {
		t.Fatalf("ServeConn over the limit: %v, want ErrServerClosed", err)
	}
	m, err := wire.NewReader(over).Next()
	if err != nil {
		t.Fatalf("reading over-limit refusal: %v", err)
	}
	if b, isBusy := m.(wire.Busy); !isBusy || b.Reason != wire.ReasonConns {
		t.Fatalf("refusal frame %#v, want busy{conns}", m)
	}
	over.Close()
	hold.Close()
	waitStats(t, srv, func(c Counters) bool { return c.Rejected == 1 && c.BusySent == 1 })
	checkCountersConsistent(t, srv.Stats())
}

// shedOnce is a deterministic test policy: it sheds each (device, cargo)
// pair in its table exactly once, regardless of queue pressure, so the
// shed-defer protocol can be exercised without racing real occupancy.
type shedOnce struct {
	mu   sync.Mutex
	ids  map[uint64]bool // cargo IDs to shed
	done map[[2]uint64]bool
	ra   time.Duration
}

func (p *shedOnce) AdmitHello(wire.Hello) (bool, time.Duration) { return true, 0 }

func (p *shedOnce) ShedCargo(h wire.Hello, c wire.CargoArrival, _ int) (bool, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ids[c.ID] {
		return false, 0
	}
	key := [2]uint64{h.DeviceID, c.ID}
	if p.done[key] {
		return false, 0
	}
	p.done[key] = true
	return true, p.ra
}

func (p *shedOnce) RetryAfter() time.Duration { return p.ra }

// TestShedDefersCargo proves shedding defers work instead of losing it:
// a session whose first cargo frame is shed must, after the resume
// redelivers it, produce the exact decision stream and stats of an
// unshed baseline — while the Busy frame itself never perturbs the
// session sequence numbers.
func TestShedDefersCargo(t *testing.T) {
	sess := sessionForDevice(t, 3)
	var firstCargo uint64
	found := false
	for _, ev := range sess.Events {
		if c, ok := ev.(wire.CargoArrival); ok {
			firstCargo, found = c.ID, true
			break
		}
	}
	if !found {
		t.Fatal("synthesized session has no cargo to shed")
	}
	clean := New(Config{})
	want := driveLoopback(t, clean, sess)

	policy := &shedOnce{
		ids:  map[uint64]bool{firstCargo: true},
		done: map[[2]uint64]bool{},
		ra:   40 * time.Millisecond,
	}
	srv := New(Config{Admission: policy})

	// First connection: the session is cut by the shed — collect what
	// arrived before the Busy.
	var got []wire.Message
	client, sconn := net.Pipe()
	go srv.ServeConn(sconn)
	w := wire.NewWriter(client)
	r := wire.NewReader(client)
	if err := w.Write(sess.Hello); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if m, err := r.Next(); err != nil {
		t.Fatalf("admission: %v", err)
	} else if a, ok := m.(wire.Ack); !ok || a.Seq != 0 {
		t.Fatalf("admission frame %#v", m)
	}
	readDone := make(chan struct{})
	var sawBusy bool
	go func() {
		defer close(readDone)
		for {
			m, err := r.Next()
			if err != nil {
				return
			}
			if b, isBusy := m.(wire.Busy); isBusy {
				if b.Reason != wire.ReasonQueue || b.RetryAfter != 40*time.Millisecond {
					t.Errorf("shed busy = %+v, want reason queue, retry-after 40ms", b)
				}
				sawBusy = true
				continue
			}
			got = append(got, m)
		}
	}()
	for _, ev := range sess.Events {
		if err := w.Write(ev); err != nil {
			break // the server parked and closed; expected mid-stream
		}
	}
	// If every event landed before the shed cut the conn, the finish ack
	// may land too; ignore its error either way.
	w.Write(wire.Ack{Seq: uint64(len(sess.Events)) + 1})
	<-readDone
	if !sawBusy {
		t.Fatal("shed produced no Busy frame")
	}
	waitStats(t, srv, func(c Counters) bool { return c.Parked == 1 })
	st := srv.Stats()
	if st.Shed != 1 || st.BusySent != 1 {
		t.Fatalf("shed %d busy-sent %d, want 1/1", st.Shed, st.BusySent)
	}

	// Resume: the server redelivery contract (ResumeOK.Got excludes the
	// shed frame) lets the client re-send from there and finish.
	client2, sconn2 := net.Pipe()
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ServeConn(sconn2) }()
	w2 := wire.NewWriter(client2)
	r2 := wire.NewReader(client2)
	token := wire.SessionToken(sess.Hello)
	if err := w2.Write(wire.Resume{DeviceID: sess.Hello.DeviceID, Token: token, Got: uint64(len(got))}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	m, err := r2.Next()
	if err != nil {
		t.Fatalf("resume answer: %v", err)
	}
	rok, isOK := m.(wire.ResumeOK)
	if !isOK {
		t.Fatalf("resume answer %#v, want resume_ok", m)
	}
	collectDone := make(chan error, 1)
	go func() {
		for {
			m, err := r2.Next()
			if err != nil {
				collectDone <- err
				return
			}
			got = append(got, m)
			if _, isAck := m.(wire.Ack); isAck {
				collectDone <- nil
				return
			}
		}
	}()
	journal := append(append([]wire.Message{}, sess.Events...), wire.Ack{Seq: uint64(len(sess.Events)) + 1})
	for i := rok.Got; i < uint64(len(journal)); i++ {
		if err := w2.Write(journal[i]); err != nil {
			t.Fatalf("re-sending frame %d: %v", i, err)
		}
	}
	if err := <-collectDone; err != nil {
		t.Fatalf("collecting resumed stream: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("resumed session: %v", err)
	}
	client2.Close()

	// The combined stream must equal the unshed baseline exactly.
	var decisions []wire.Decision
	var stats wire.StatsSnapshot
	for _, m := range got {
		switch v := m.(type) {
		case wire.Decision:
			decisions = append(decisions, v)
		case wire.StatsSnapshot:
			stats = v
		}
	}
	if len(decisions) != len(want.Decisions) {
		t.Fatalf("decisions after shed+resume: %d, baseline %d", len(decisions), len(want.Decisions))
	}
	for i := range decisions {
		if !decisionsEqual(decisions[i], want.Decisions[i]) {
			t.Fatalf("decision %d diverged:\n got %+v\nwant %+v", i, decisions[i], want.Decisions[i])
		}
	}
	if stats != want.Stats {
		t.Fatalf("stats diverged:\n got %+v\nwant %+v", stats, want.Stats)
	}
	final := srv.Stats()
	if final.Completed != 1 || final.Resumed != 1 {
		t.Errorf("completed %d resumed %d, want 1/1", final.Completed, final.Resumed)
	}
	checkCountersConsistent(t, final)
}

func errorsIsHelloRefused(err error) bool { return errors.Is(err, errHelloRefused) }

// decisionsEqual compares two decisions entry for entry.
func decisionsEqual(a, b wire.Decision) bool {
	if a.Slot != b.Slot || a.Flush != b.Flush || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

// sessionForDevice synthesizes a wire replay for the given device index.
func sessionForDevice(t *testing.T, index int) Session {
	t.Helper()
	dev, err := fleet.SynthesizeDevice(7, testPopulation(t), index, testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := SessionFromDevice(dev, testTheta, testK)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// waitStats polls the server's counters until cond holds: refusal
// counters land a beat after the client observes the Busy frame.
func waitStats(t *testing.T, srv *Server, cond func(Counters) bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond(srv.Stats()) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counters never converged: %+v", srv.Stats())
}
