package cluster

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"etrain/internal/client"
	"etrain/internal/fleet"
	"etrain/internal/server"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

// shardProc is one in-process "etraind shard": a session server, its
// listener, and its control-plane agent.
type shardProc struct {
	id        uint64
	srv       *server.Server
	l         net.Listener
	cancel    context.CancelFunc
	agentDone chan struct{}
}

// startShardProc boots a shard and registers it with the controller.
func startShardProc(t *testing.T, ctrlAddr string, id uint64) *shardProc {
	t.Helper()
	return startShardProcWith(t, ctrlAddr, id, server.Config{})
}

// startShardProcWith boots a shard whose session server uses scfg —
// the overload tests inject an Admission policy here.
func startShardProcWith(t *testing.T, ctrlAddr string, id uint64, scfg server.Config) *shardProc {
	t.Helper()
	srv := server.New(scfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	sp := &shardProc{id: id, srv: srv, l: l, cancel: cancel, agentDone: done}
	go func() {
		defer close(done)
		_ = RunAgent(ctx, AgentConfig{
			ShardID:   id,
			Advertise: l.Addr().String(),
			Dial:      tcpDialer(ctrlAddr),
			Stats: func() wire.ShardStats {
				return CountersToShardStats(id, srv.Stats())
			},
			Overload: func() wire.ShardOverload {
				return CountersToShardOverload(id, srv.Stats())
			},
			BeatEvery: time.Millisecond,
			Sleep:     time.Sleep,
		})
	}()
	return sp
}

// kill is the SIGKILL analog: the agent's control conn drops (so the
// controller declares the shard dead) and every session conn plus the
// listener dies abruptly, parked state discarded.
// stallConn passes a client's first write (its Hello) and holds every
// later write until release closes. Only the client's Run goroutine
// writes, so writes needs no lock.
type stallConn struct {
	net.Conn
	release <-chan struct{}
	writes  int
}

func (c *stallConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes > 1 {
		<-c.release
	}
	return c.Conn.Write(p)
}

func (sp *shardProc) kill() {
	sp.cancel()
	<-sp.agentDone
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = sp.srv.Shutdown(ctx)
}

// TestClusterFailoverZeroDecisionLoss is the in-process twin of the CI
// cluster job: a 3-shard cluster serves a device fleet, one shard is
// killed mid-run, every client recovers on the new owner (resume-miss →
// Hello replay, or degraded local completion), and both the per-device
// decision streams and the device-order fleet fold are bit-identical to
// a single-process run of the same device set.
func TestClusterFailoverZeroDecisionLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard failover run")
	}
	const (
		devices = 18
		theta   = 4.0
		k       = 20
		horizon = 2 * time.Minute
	)
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}

	// Single-process baseline over loopback.
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

	// The cluster: controller, three shards, a route-following client side.
	ctrl, ctrlAddr := startController(t, ControllerConfig{RingSeed: 42})
	shards := make(map[uint64]*shardProc)
	for _, id := range []uint64{1, 2, 3} {
		sp := startShardProc(t, ctrlAddr, id)
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
	deadline := time.Now().Add(10 * time.Second)
	for len(rt.Table().Shards) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never formed: %+v", rt.Table())
		}
		time.Sleep(time.Millisecond)
	}

	// Pick the victim: the shard owning the most devices, so the kill
	// strands real in-flight work.
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

	// The killer strikes as soon as the victim is actually serving: that
	// strands live in-flight sessions, which must then heal on the
	// surviving shards. A client's first connection to the victim holds
	// its event stream back until the kill (stallConn), so the sessions
	// the victim admits are still in flight when it dies, however fast
	// a session runs.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
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
			route := rt.Dialer(uint64(i))
			owner, _ := ring.Owner(uint64(i))
			stall := owner == victim
			out, err := client.Run(client.Config{
				Route: func() (net.Conn, bool, error) {
					conn, moved, err := route()
					if err == nil && stall {
						stall = false
						conn = &stallConn{Conn: conn, release: killed}
					}
					return conn, moved, err
				},
				Seed:  1,
				Sleep: func(time.Duration) { time.Sleep(time.Millisecond) },
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

	// Zero decision loss: every device's stream matches the baseline
	// frame for frame, bit for bit.
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
				t.Errorf("device %d decision %d: (flush %v, %d entries) vs (%v, %d)",
					i, j, g.Flush, len(g.Entries), w.Flush, len(w.Entries))
				break
			}
			for e := range g.Entries {
				if g.Entries[e] != w.Entries[e] {
					t.Errorf("device %d decision %d entry %d: %+v vs %+v", i, j, e, g.Entries[e], w.Entries[e])
					break
				}
			}
		}
		if out.Stats != want.Stats {
			t.Errorf("device %d stats:\n got %+v\nwant %+v", i, out.Stats, want.Stats)
		}
	}

	// Fleet-wide merged stats: the device-order fold over the cluster run
	// renders the same bits as over the single-process run.
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

	// The kill registered as a death (the controller may still be
	// processing the dropped control conn when the last client finishes).
	deadline = time.Now().Add(10 * time.Second)
	for ctrl.Status().Deaths < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("controller saw no shard death: %+v", ctrl.Status())
		}
		time.Sleep(time.Millisecond)
	}

	// At least one client visibly healed: it reconnected, replayed its
	// Hello on the new owner, or completed its stranded session locally.
	healed := 0
	for _, out := range outcomes {
		if out != nil && (out.Reconnects > 0 || out.Replays > 0 || out.DegradedStints > 0) {
			healed++
		}
	}
	if healed == 0 {
		t.Error("kill stranded no client: the failover path went unexercised")
	}
}
