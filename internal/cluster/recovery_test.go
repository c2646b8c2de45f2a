package cluster

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"etrain/internal/client"
	"etrain/internal/fleet"
	"etrain/internal/server"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

// TestSnapshotRoundTrip: Snapshot → WriteSnapshot → LoadSnapshot is
// lossless, shards come back in ascending ID order, and the drain flag
// survives.
func TestSnapshotRoundTrip(t *testing.T) {
	c, addr := startController(t, ControllerConfig{RingSeed: 42, Vnodes: 16})
	s2 := joinShard(t, addr, 2, "b:2")
	defer s2.conn.Close()
	s2.tableWith(2)
	s1 := joinShard(t, addr, 1, "a:1")
	defer s1.conn.Close()
	s1.tableWith(1, 2)
	if err := c.Drain(2); err != nil {
		t.Fatal(err)
	}
	s1.tableWith(1)

	path := filepath.Join(t.TempDir(), "ctrl.json")
	if err := c.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Snapshot()
	if got.Epoch != want.Epoch || got.RingSeed != 42 || got.Vnodes != 16 ||
		got.Deaths != want.Deaths || got.Drains != 1 {
		t.Fatalf("loaded %+v, want %+v", got, want)
	}
	if len(got.Shards) != 2 || got.Shards[0] != (ShardSnapshot{ID: 1, Addr: "a:1"}) ||
		got.Shards[1] != (ShardSnapshot{ID: 2, Addr: "b:2", Draining: true}) {
		t.Fatalf("loaded shards %+v", got.Shards)
	}

	// A rewrite lands atomically on the same path.
	if err := c.WriteSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSnapshotValidation: missing files, torn JSON, and impossible
// member sets are all refused.
func TestLoadSnapshotValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadSnapshot(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("loading a missing snapshot succeeded")
	}
	cases := map[string]string{
		"torn":    `{"epoch": 3, "ring_se`,
		"vnodes":  `{"epoch": 3, "ring_seed": 1, "vnodes": 0, "shards": []}`,
		"zero-id": `{"epoch": 3, "ring_seed": 1, "vnodes": 8, "shards": [{"id": 0, "addr": "a:1"}]}`,
		"dup-id":  `{"epoch": 3, "ring_seed": 1, "vnodes": 8, "shards": [{"id": 2, "addr": "a:1"}, {"id": 2, "addr": "b:2"}]}`,
	}
	for name, body := range cases {
		p := filepath.Join(dir, name+".json")
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(p); err == nil {
			t.Errorf("%s snapshot loaded without error", name)
		}
	}
}

// TestRestorePhantomLifecycle: a restored controller republishes the
// snapshot's exact table (same epoch, draining members excluded), the
// grace window shields the phantoms from Sweep, and phantoms that never
// re-register expire through normal beat staleness once grace ends.
func TestRestorePhantomLifecycle(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(5000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	snap := &ControllerSnapshot{
		Epoch:    7,
		RingSeed: 9,
		Vnodes:   32,
		Shards: []ShardSnapshot{
			{ID: 1, Addr: "a:1"},
			{ID: 2, Addr: "b:2", Draining: true},
		},
		Deaths: 3,
		Drains: 1,
	}
	c := NewController(ControllerConfig{
		RingSeed:    -1, // overridden by the snapshot
		Clock:       clock,
		BeatTimeout: 5 * time.Second,
		RejoinGrace: 10 * time.Second,
		Restore:     snap,
	})

	tbl := c.Table()
	if tbl.Epoch != 7 || tbl.Seed != 9 || tbl.Vnodes != 32 {
		t.Fatalf("restored table %+v, want epoch 7 seed 9 vnodes 32", tbl)
	}
	if len(tbl.Shards) != 1 || tbl.Shards[0] != (wire.RouteEntry{ShardID: 1, Addr: "a:1"}) {
		t.Fatalf("restored entries %+v, want the non-draining member only", tbl.Shards)
	}
	st := c.Status()
	if len(st.Shards) != 2 || st.Deaths != 3 || st.Drains != 1 {
		t.Fatalf("restored status %+v", st)
	}

	// Inside the grace window Sweep must not touch the phantoms even
	// though their (restore-stamped) beats have gone stale.
	mu.Lock()
	now = now.Add(8 * time.Second)
	mu.Unlock()
	c.Sweep()
	if got := len(c.Status().Shards); got != 2 {
		t.Fatalf("sweep inside grace left %d shards, want 2", got)
	}

	// Past the grace window the never-rejoined phantoms expire normally.
	mu.Lock()
	now = now.Add(3 * time.Second)
	mu.Unlock()
	c.Sweep()
	if st := c.Status(); len(st.Shards) != 0 || st.Deaths != 5 {
		t.Fatalf("post-grace sweep: %+v", st)
	}
	if got := c.Table(); len(got.Shards) != 0 || got.Epoch != 8 {
		t.Fatalf("post-expiry table %+v, want empty at epoch 8", got)
	}
}

// TestShardRejoinEpochBumpsOnce is the satellite regression: a shard
// Sweep declared dead rejoins under the same ID — the epoch bumps
// exactly once for the rejoin, a content-identical re-registration does
// not bump it again, and a stale table can never reach a subscriber
// thanks to the push epoch guard.
func TestShardRejoinEpochBumpsOnce(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	c, addr := startController(t, ControllerConfig{RingSeed: 3, BeatTimeout: 10 * time.Second, Clock: clock})
	s1 := joinShard(t, addr, 1, "a:1")
	s2 := joinShard(t, addr, 2, "b:2")
	defer s2.conn.Close()
	s2.tableWith(1, 2)

	// Advance past the timeout, keep shard 2 alive with a fresh beat,
	// and let shard 1 fall silent (without closing its conn — conn loss
	// would remove it before Sweep gets the chance).
	mu.Lock()
	now = now.Add(11 * time.Second)
	mu.Unlock()
	s2.write(wire.ShardStats{ShardID: 2, Seq: 1})
	waitUntil(t, "beat 1 landed", func() bool {
		st := c.Status()
		return len(st.Shards) == 2 && st.Shards[1].BeatSeq == 1
	})
	c.Sweep()
	if st := c.Status(); len(st.Shards) != 1 || st.Deaths != 1 {
		t.Fatalf("after sweep: %+v", st)
	}
	s1.conn.Close() // the abandoned conn's loop unwinds as superseded-or-gone
	s2.tableWith(2)
	epochAfterSweep := c.Table().Epoch

	// The rejoin: exactly one bump.
	s1b := joinShard(t, addr, 1, "a:1")
	defer s1b.conn.Close()
	rejoined := s1b.tableWith(1, 2)
	if rejoined.Epoch != epochAfterSweep+1 {
		t.Fatalf("rejoin moved epoch %d -> %d, want exactly one bump to %d",
			epochAfterSweep, rejoined.Epoch, epochAfterSweep+1)
	}

	// A content-identical re-registration (the shard's conn flapped and
	// it dialed again before the old conn died) must not bump at all.
	s1c := joinShard(t, addr, 1, "a:1")
	defer s1c.conn.Close()
	s1c.write(wire.ShardStats{ShardID: 1, Seq: 42})
	waitUntil(t, "supersede processed", func() bool {
		st := c.Status()
		return len(st.Shards) == 2 && st.Shards[0].BeatSeq == 42
	})
	if got := c.Table().Epoch; got != rejoined.Epoch {
		t.Fatalf("identical re-registration bumped epoch %d -> %d", rejoined.Epoch, got)
	}

	// Epoch guard: a watcher already holding the current epoch gets no
	// stale (re)push; the first table it ever sees is the next epoch.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	watch := &testShard{t: t, conn: conn, r: wire.NewReader(conn), w: wire.NewWriter(conn)}
	watch.write(wire.Ack{Seq: rejoined.Epoch})
	s3 := joinShard(t, addr, 3, "c:3")
	defer s3.conn.Close()
	next := watch.tableWith(1, 2, 3)
	if next.Epoch != rejoined.Epoch+1 {
		t.Fatalf("watcher's first table is epoch %d, want %d and nothing staler",
			next.Epoch, rejoined.Epoch+1)
	}
}

// waitUntil polls cond with the package's usual 5s ceiling.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestControllerRestartRecovery is the crash-restart acceptance test:
// the controller is killed mid-run and restarted from its snapshot on
// the same address while a 3-shard cluster serves a device fleet. The
// shards re-register inside the grace window, the recovered route table
// matches the pre-crash one at an equal-or-higher epoch, and the fleet
// fold stays byte-identical to an uninterrupted single-process baseline.
func TestControllerRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-shard restart run")
	}
	const (
		devices = 12
		theta   = 4.0
		k       = 20
		horizon = 2 * time.Minute
	)
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
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

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrlAddr := l.Addr().String()
	ctrl1 := NewController(ControllerConfig{RingSeed: 42})
	go ctrl1.Serve(l)

	shards := make(map[uint64]*shardProc)
	for _, id := range []uint64{1, 2, 3} {
		sp := startShardProc(t, ctrlAddr, id)
		shards[id] = sp
		t.Cleanup(func() { sp.kill() })
	}
	rt, err := NewRouter(RouterConfig{
		DialControl: tcpDialer(ctrlAddr),
		DialShard:   func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
		Sleep:       func(time.Duration) { time.Sleep(time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	waitUntil(t, "cluster formation", func() bool { return len(rt.Table().Shards) == 3 })
	pre := ctrl1.Table()

	snapPath := filepath.Join(t.TempDir(), "ctrl.json")
	if err := ctrl1.WriteSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}

	// The assassin waits for real in-flight work, kills the controller
	// abruptly (every control conn and the listener die, the SIGKILL
	// analog), and restarts it from the snapshot on the same address.
	restarted := make(chan *Controller, 1)
	go func() {
		defer close(restarted)
		for {
			active := 0
			for _, sp := range shards {
				active += int(sp.srv.Stats().Active + sp.srv.Stats().Completed)
			}
			if active > 0 {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = ctrl1.Shutdown(ctx)
		snap, err := LoadSnapshot(snapPath)
		if err != nil {
			t.Errorf("reloading snapshot: %v", err)
			return
		}
		var l2 net.Listener
		deadline := time.Now().Add(10 * time.Second)
		for {
			l2, err = net.Listen("tcp", ctrlAddr)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("rebinding %s: %v", ctrlAddr, err)
				return
			}
			time.Sleep(time.Millisecond)
		}
		ctrl2 := NewController(ControllerConfig{
			Restore:     snap,
			RejoinGrace: time.Minute,
			Clock:       time.Now,
		})
		// Phantoms must survive an immediate sweep: the whole point of
		// the grace window.
		ctrl2.Sweep()
		if got := len(ctrl2.Status().Shards); got != 3 {
			t.Errorf("sweep during grace kept %d phantoms, want 3", got)
		}
		go ctrl2.Serve(l2)
		restarted <- ctrl2
	}()

	outcomes := make([]*client.Outcome, devices)
	var wg sync.WaitGroup
	for i := 0; i < devices; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := client.Run(client.Config{
				Route: rt.Dialer(uint64(i)),
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
	ctrl2, ok := <-restarted
	if !ok || ctrl2 == nil {
		t.Fatal("controller never restarted")
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := ctrl2.Shutdown(ctx); err != nil {
			t.Errorf("restarted controller shutdown: %v", err)
		}
	})

	// Zero decision loss across the control-plane outage.
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
	}

	// Fleet fold: byte-identical to the uninterrupted baseline.
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
		t.Errorf("fleet reports diverge across the restart:\ncluster %+v\nsingle  %+v", clusterReport, singleReport)
	}

	// Every shard re-registers within the grace window and the recovered
	// table converges to the pre-crash one: identical members, seed and
	// vnodes at an equal-or-higher epoch (equal, thanks to the
	// content-compare rebuild skip).
	waitUntil(t, "shards re-registered after restart", func() bool {
		st := ctrl2.Status()
		if len(st.Shards) != 3 {
			return false
		}
		for _, sh := range st.Shards {
			if sh.Beats == 0 {
				return false // still a phantom, no live agent behind it
			}
		}
		return true
	})
	got := ctrl2.Table()
	if got.Seed != pre.Seed || got.Vnodes != pre.Vnodes || len(got.Shards) != len(pre.Shards) {
		t.Fatalf("recovered table %+v, pre-crash %+v", got, pre)
	}
	for i := range got.Shards {
		if got.Shards[i] != pre.Shards[i] {
			t.Fatalf("recovered entry %d: %+v, pre-crash %+v", i, got.Shards[i], pre.Shards[i])
		}
	}
	if got.Epoch < pre.Epoch {
		t.Fatalf("recovered epoch %d regressed below pre-crash %d", got.Epoch, pre.Epoch)
	}
	if got.Epoch != pre.Epoch {
		t.Errorf("recovered epoch %d, want exactly %d (re-registration must not storm)", got.Epoch, pre.Epoch)
	}
}
