package cluster

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"etrain/internal/client"
	"etrain/internal/fleet"
	"etrain/internal/server"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

// TestControllerOverloadReporting: ShardOverload frames land in Status,
// OverloadTotals and the /metrics exposition without disturbing the
// stats path.
func TestControllerOverloadReporting(t *testing.T) {
	c, addr := startController(t, ControllerConfig{RingSeed: 1})
	s1 := joinShard(t, addr, 4, "a:1")
	defer s1.conn.Close()
	s1.tableWith(4)
	s1.write(wire.ShardStats{ShardID: 4, Accepted: 9, Rejected: 2, Completed: 9})
	s1.write(wire.ShardOverload{ShardID: 4, Refused: 3, Shed: 2, BusySent: 5})
	waitUntil(t, "overload snapshot landed", func() bool {
		st := c.Status()
		return len(st.Shards) == 1 && st.Shards[0].Overload != nil
	})

	ov := c.Status().Shards[0].Overload
	if ov.Refused != 3 || ov.Shed != 2 || ov.BusySent != 5 {
		t.Fatalf("overload snapshot %+v", ov)
	}
	if tot := c.OverloadTotals(); tot.Refused != 3 || tot.Shed != 2 || tot.BusySent != 5 {
		t.Fatalf("overload totals %+v", tot)
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
