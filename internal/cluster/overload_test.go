package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etrain/internal/client"
	"etrain/internal/fleet"
	"etrain/internal/server"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

// TestControllerOverloadReporting: a beat's admission and shedding
// counters land in Status, Totals, /sessions and the /metrics exposition
// alongside the session counters of the same snapshot.
func TestControllerOverloadReporting(t *testing.T) {
	c, addr := startController(t, ControllerConfig{RingSeed: 1})
	s1 := joinShard(t, addr, 4, "a:1")
	defer s1.conn.Close()
	s1.tableWith(4)
	s1.write(wire.ShardStats{ShardID: 4, Seq: 1, Accepted: 12, Rejected: 2, Completed: 9,
		Refused: 3, Shed: 2, BusySent: 5})
	waitUntil(t, "beat landed", func() bool {
		st := c.Status()
		return len(st.Shards) == 1 && st.Shards[0].Stats != nil
	})

	s := c.Status().Shards[0].Stats
	if s.Refused != 3 || s.Shed != 2 || s.BusySent != 5 || s.Accepted != 12 {
		t.Fatalf("beat snapshot %+v", s)
	}
	if tot := c.Totals(); tot.Refused != 3 || tot.Shed != 2 || tot.BusySent != 5 || tot.Accepted != 12 {
		t.Fatalf("totals %+v", tot)
	}

	ops := httptest.NewServer(c.OpsHandler())
	defer ops.Close()
	resp, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		"etrain_shard_sessions_rejected{shard=\"4\"} 2\n",
		"etrain_shard_hellos_refused{shard=\"4\"} 3\n",
		"etrain_shard_cargo_shed{shard=\"4\"} 2\n",
		"etrain_shard_busy_sent{shard=\"4\"} 5\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	resp, err = http.Get(ops.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var sr sessionsReport
	if err := json.Unmarshal([]byte(readAll(t, resp)), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Totals.Refused != 3 || sr.Totals.Shed != 2 || sr.Totals.BusySent != 5 {
		t.Fatalf("/sessions totals %+v", sr.Totals)
	}
}

// teeListener records, per accepted conn, every byte the server side
// reads: the frames a controller consumed, in order.
type teeListener struct {
	net.Listener
	mu    sync.Mutex
	reads []*bytes.Buffer
}

func (l *teeListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	buf := new(bytes.Buffer)
	l.reads = append(l.reads, buf)
	return &teeConn{Conn: conn, l: l, buf: buf}, nil
}

type teeConn struct {
	net.Conn
	l   *teeListener
	buf *bytes.Buffer
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.buf.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

// TestBeatIsOneSnapshot: an agent over an admission-limited server beats
// with one snapshot of its counters per frame, so every beat the
// controller records balances Accepted == Active + Completed + Errored +
// Parked + Refused while Hellos are being refused.
func TestBeatIsOneSnapshot(t *testing.T) {
	const devices, admitted = 6, 2
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	c := NewController(ControllerConfig{RingSeed: 1})
	cl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tee := &teeListener{Listener: cl}
	go c.Serve(tee)
	defer c.Shutdown(context.Background())

	// No Clock: the bucket is a fixed budget of admitted Hellos.
	srv := server.New(server.Config{
		Admission: server.NewTokenBucketAdmission(server.TokenBucketConfig{Burst: admitted}),
	})
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(sl)
	defer srv.Shutdown(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	agentDone := make(chan struct{})
	go func() {
		defer close(agentDone)
		_ = RunAgent(ctx, AgentConfig{
			ShardID:   1,
			Advertise: sl.Addr().String(),
			Dial:      tcpDialer(cl.Addr().String()),
			Stats:     func() wire.ShardStats { return CountersToShardStats(1, srv.Stats()) },
			BeatEvery: 50 * time.Microsecond,
			Sleep:     time.Sleep,
		})
	}()

	var wg sync.WaitGroup
	var served atomic.Int32
	for i := 0; i < devices; i++ {
		dev, err := fleet.SynthesizeDevice(7, pop, i, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := server.SessionFromDevice(dev, 4, 20)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", sl.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := server.Drive(conn, sess); err == nil {
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	waitUntil(t, "the last sessions' beat", func() bool {
		st := c.Status()
		return len(st.Shards) == 1 && st.Shards[0].Stats != nil &&
			st.Shards[0].Stats.Refused == devices-admitted && st.Shards[0].Stats.Completed == admitted
	})
	cancel()
	<-agentDone

	tee.mu.Lock()
	defer tee.mu.Unlock()
	beats, refusing := 0, 0
	for _, buf := range tee.reads {
		b := buf.Bytes()
		for len(b) > 0 {
			m, n, err := wire.Decode(b)
			if err != nil {
				break // a frame the hang-up cut short
			}
			b = b[n:]
			s, ok := m.(wire.ShardStats)
			if !ok {
				continue
			}
			beats++
			if s.Accepted != s.Active+s.Completed+s.Errored+s.Parked+s.Refused {
				t.Errorf("beat %d is not one snapshot: %+v", s.Seq, s)
			}
			if s.Refused > 0 {
				refusing++
			}
		}
	}
	if beats == 0 || refusing == 0 {
		t.Fatalf("%d beats recorded, %d with refusals: the refusal path went unexercised", beats, refusing)
	}
	if n := served.Load(); n != admitted {
		t.Errorf("%d sessions served, want the %d the bucket admits", n, admitted)
	}
}

// TestThunderingHerdShardKill is the overload chaos acceptance test: a
// device fleet roughly twice the cluster's instantaneous admission
// capacity hits 3 admission-limited shards, and the busiest shard is
// killed mid-run — the synchronized failover herd lands on the
// survivors' token buckets. Every session must complete or degrade
// gracefully with zero decision loss (streams byte-identical to the
// clean loopback baseline), busy-retries per session stay bounded by
// the retry budget, and exhaustions are bounded by the stints they
// trigger.
func TestThunderingHerdShardKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard overload run")
	}
	const (
		devices = 18
		theta   = 4.0
		k       = 20
		horizon = 2 * time.Minute
		budget  = 4
	)
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}

	// Clean loopback baseline, no admission: shedding and refusal may
	// delay work but never change a decision.
	sessions := make([]server.Session, devices)
	baseline := make([]*server.DeviceOutcome, devices)
	single := server.New(server.Config{})
	for i := 0; i < devices; i++ {
		dev, err := fleet.SynthesizeDevice(7, pop, i, horizon)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := server.SessionFromDevice(dev, theta, k)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
		cl, sv := net.Pipe()
		srvErr := make(chan error, 1)
		go func() { srvErr <- single.ServeConn(sv) }()
		out, err := server.Drive(cl, sess)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-srvErr; err != nil {
			t.Fatal(err)
		}
		baseline[i] = out
	}

	// 3 shards, each admitting a burst of 3 and trickling refills: 9
	// instant slots for an 18-device herd — 2x capacity.
	ctrl, ctrlAddr := startController(t, ControllerConfig{RingSeed: 42})
	shards := make(map[uint64]*shardProc)
	for _, id := range []uint64{1, 2, 3} {
		sp := startShardProcWith(t, ctrlAddr, id, server.Config{
			Admission: server.NewTokenBucketAdmission(server.TokenBucketConfig{
				Rate:       200,
				Burst:      3,
				RetryAfter: 2 * time.Millisecond,
				HighWater:  8,
				Clock:      time.Now,
			}),
		})
		shards[id] = sp
		t.Cleanup(func() { sp.kill() })
	}
	rt, err := NewRouter(RouterConfig{
		DialControl: tcpDialer(ctrlAddr),
		DialShard:   func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	waitUntil(t, "cluster formation", func() bool { return len(rt.Table().Shards) == 3 })

	ring, _ := RingFromTable(rt.Table())
	ownedBy := map[uint64]int{}
	for i := 0; i < devices; i++ {
		owner, _ := ring.Owner(uint64(i))
		ownedBy[owner]++
	}
	victim := uint64(1)
	for id, n := range ownedBy {
		if n > ownedBy[victim] {
			victim = id
		}
	}
	if ownedBy[victim] == 0 {
		t.Fatalf("victim %d owns nothing: %v", victim, ownedBy)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		// Poll the monotonic Accepted count, not the Active gauge: a victim
		// whose sessions all open and finish between two polls never shows
		// Active > 0, and the killer would wait forever.
		for shards[victim].srv.Stats().Accepted == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		shards[victim].kill()
	}()

	outcomes := make([]*client.Outcome, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := client.Run(client.Config{
				Route:       rt.Dialer(uint64(i)),
				Seed:        1,
				RetryBudget: budget,
				Sleep:       func(time.Duration) { time.Sleep(time.Millisecond) },
			}, sessions[i])
			if err != nil {
				t.Errorf("device %d: %v", i, err)
				return
			}
			outcomes[i] = out
		}(i)
	}
	wg.Wait()
	<-killed

	// Zero decision loss under overload + failover: every stream matches
	// the baseline bit for bit, served or locally completed.
	for i, out := range outcomes {
		if out == nil {
			continue // already reported
		}
		want := baseline[i]
		if len(out.Decisions) != len(want.Decisions) {
			t.Errorf("device %d: %d decisions, baseline %d", i, len(out.Decisions), len(want.Decisions))
			continue
		}
		for j := range out.Decisions {
			g, w := out.Decisions[j], want.Decisions[j]
			if g.Flush != w.Flush || len(g.Entries) != len(w.Entries) {
				t.Errorf("device %d decision %d diverged", i, j)
				break
			}
			for e := range g.Entries {
				if g.Entries[e] != w.Entries[e] {
					t.Errorf("device %d decision %d entry %d diverged", i, j, e)
					break
				}
			}
		}
		if out.Stats != want.Stats {
			t.Errorf("device %d stats:\n got %+v\nwant %+v", i, out.Stats, want.Stats)
		}

		// No retry storms: busy responses are bounded by the budget plus
		// one refill per progressing exchange (each of which shows up as
		// a reconnect/resume/replay/stint) plus the exhausting hit.
		bound := budget + 1 + out.Reconnects + out.Resumes + out.Replays + out.DegradedStints + out.BudgetExhausted
		if out.BusyResponses > bound {
			t.Errorf("device %d: %d busy responses exceed the budget bound %d (%+v)",
				i, out.BusyResponses, bound, out)
		}
		// Exhaustions are bounded: each one forces a degraded stint
		// before the client may spend again.
		if out.BudgetExhausted > out.DegradedStints+1 {
			t.Errorf("device %d: %d exhaustions but only %d degraded stints",
				i, out.BudgetExhausted, out.DegradedStints)
		}
	}

	// The fleet fold is byte-identical to the uninterrupted baseline.
	foldFrom := func(stats func(i int) wire.StatsSnapshot) FleetReport {
		fs, err := NewFleetStats(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < devices; i++ {
			fs.Add(stats(i))
		}
		return fs.Report()
	}
	clusterReport := foldFrom(func(i int) wire.StatsSnapshot {
		if outcomes[i] == nil {
			return wire.StatsSnapshot{}
		}
		return outcomes[i].Stats
	})
	singleReport := foldFrom(func(i int) wire.StatsSnapshot { return baseline[i].Stats })
	if clusterReport != singleReport {
		t.Errorf("fleet reports diverge:\ncluster %+v\nsingle  %+v", clusterReport, singleReport)
	}

	// The herd was real: the admission layer visibly pushed back
	// somewhere (survivor counters only; the victim's died with it).
	pushback := uint64(0)
	clientBusy := 0
	for id, sp := range shards {
		if id == victim {
			continue
		}
		st := sp.srv.Stats()
		pushback += st.Refused + st.Shed + st.BusySent
	}
	for _, out := range outcomes {
		if out != nil {
			clientBusy += out.BusyResponses
		}
	}
	if pushback == 0 && clientBusy == 0 {
		t.Error("no refusals, sheds or busy responses anywhere: the overload path went unexercised")
	}
	_ = ctrl
}
