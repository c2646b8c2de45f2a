package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"etrain/internal/wire"
)

func tcpDialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// TestAgentRegistersBeatsAndStops: RunAgent registers, beats with
// stats, delivers pushed tables, and unwinds cleanly on cancel.
func TestAgentRegistersBeatsAndStops(t *testing.T) {
	c, addr := startController(t, ControllerConfig{RingSeed: 42})

	var tblMu sync.Mutex
	var lastTable wire.RouteTable
	ctx, cancel := context.WithCancel(context.Background())
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- RunAgent(ctx, AgentConfig{
			ShardID:   5,
			Advertise: "127.0.0.1:9999",
			Dial:      tcpDialer(addr),
			Stats: func() wire.ShardStats {
				return wire.ShardStats{Accepted: 11, Completed: 11}
			},
			BeatEvery: time.Millisecond,
			Sleep:     time.Sleep,
			OnRouteTable: func(tbl wire.RouteTable) {
				tblMu.Lock()
				lastTable = tbl
				tblMu.Unlock()
			},
		})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Status()
		if len(st.Shards) == 1 && st.Shards[0].Beats >= 2 && st.Shards[0].Stats != nil {
			if st.Shards[0].Addr != "127.0.0.1:9999" || st.Shards[0].Stats.ShardID != 5 {
				t.Fatalf("registration %+v", st.Shards[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent never became healthy: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	tblMu.Lock()
	gotTable := lastTable
	tblMu.Unlock()
	if len(gotTable.Shards) != 1 || gotTable.Shards[0].ShardID != 5 {
		t.Fatalf("agent's route table %+v", gotTable)
	}

	cancel()
	select {
	case err := <-agentDone:
		if err != context.Canceled {
			t.Fatalf("RunAgent returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunAgent did not stop on cancel")
	}
}

// TestAgentOneFramePerBeat reads an agent's control stream: ShardHello,
// then exactly one ShardStats per beat — the agent sleeps after each one
// before it writes again — stamped with the shard's ID and a Seq that
// keeps rising across a redial. Without a Stats func the beat carries
// only the ID and Seq.
func TestAgentOneFramePerBeat(t *testing.T) {
	for _, withStats := range []bool{true, false} {
		t.Run(fmt.Sprintf("stats=%v", withStats), func(t *testing.T) {
			recv := func(ch <-chan struct{}, what string) {
				t.Helper()
				select {
				case <-ch:
				case <-time.After(5 * time.Second):
					t.Fatalf("timed out waiting for the agent to %s", what)
				}
			}
			conns := make(chan net.Conn)
			sleeping, wake := make(chan struct{}), make(chan struct{})
			cfg := AgentConfig{
				ShardID:   6,
				Advertise: "a:1",
				// net.Pipe is synchronous: a frame is written only when
				// the test reads it.
				Dial: func() (net.Conn, error) {
					agentEnd, ctlEnd := net.Pipe()
					conns <- ctlEnd
					return agentEnd, nil
				},
				Sleep: func(time.Duration) {
					sleeping <- struct{}{}
					<-wake
				},
			}
			want := wire.ShardStats{ShardID: 6}
			if withStats {
				cfg.Stats = func() wire.ShardStats {
					return wire.ShardStats{ShardID: 99, Seq: 99, Accepted: 3, Completed: 2, Refused: 1}
				}
				want.Accepted, want.Completed, want.Refused = 3, 2, 1
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- RunAgent(ctx, cfg) }()

			var seq uint64
			for redial := 0; redial < 2; redial++ {
				var ctl net.Conn
				select {
				case ctl = <-conns:
				case <-time.After(5 * time.Second):
					t.Fatal("timed out waiting for the agent to dial")
				}
				if err := ctl.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
					t.Fatal(err)
				}
				r := wire.NewReader(ctl)
				m, err := r.Next()
				if h, ok := m.(wire.ShardHello); err != nil || !ok || h != (wire.ShardHello{ShardID: 6, Addr: "a:1"}) {
					t.Fatalf("first frame %#v (%v), want the shard's hello", m, err)
				}
				for beat := 0; beat < 3; beat++ {
					m, err := r.Next()
					s, ok := m.(wire.ShardStats)
					if err != nil || !ok {
						t.Fatalf("beat %d: frame %#v (%v), want shard_stats", beat, m, err)
					}
					if s.Seq <= seq {
						t.Fatalf("beat %d: seq %d after %d", beat, s.Seq, seq)
					}
					seq = s.Seq
					want.Seq = s.Seq
					if s != want {
						t.Fatalf("beat %d: %+v, want %+v", beat, s, want)
					}
					recv(sleeping, "sleep after one frame")
					if beat < 2 {
						wake <- struct{}{}
					}
				}
				if redial == 0 {
					// Hang up mid-sleep: the next beat fails and the agent
					// backs off once, then redials.
					ctl.Close()
					wake <- struct{}{}
					recv(sleeping, "back off before redialing")
					wake <- struct{}{}
				}
			}
			cancel()
			wake <- struct{}{}
			select {
			case err := <-done:
				if err != context.Canceled {
					t.Fatalf("RunAgent returned %v, want context.Canceled", err)
				}
			case <-conns:
				t.Fatal("agent redialed after cancel")
			case <-time.After(5 * time.Second):
				t.Fatal("RunAgent did not stop on cancel")
			}
		})
	}
}

// TestAgentConfigValidation: the required fields are enforced.
func TestAgentConfigValidation(t *testing.T) {
	base := AgentConfig{
		ShardID:   1,
		Advertise: "a:1",
		Dial:      func() (net.Conn, error) { return nil, nil },
		Sleep:     func(time.Duration) {},
	}
	for name, breakIt := range map[string]func(*AgentConfig){
		"shard id":  func(c *AgentConfig) { c.ShardID = 0 },
		"advertise": func(c *AgentConfig) { c.Advertise = "" },
		"dial":      func(c *AgentConfig) { c.Dial = nil },
		"sleep":     func(c *AgentConfig) { c.Sleep = nil },
	} {
		cfg := base
		breakIt(&cfg)
		if err := RunAgent(context.Background(), cfg); err == nil {
			t.Errorf("missing %s accepted", name)
		}
	}
}

// TestRouterFollowsTable: the router holds the table current across
// membership changes and its per-device dialers report moves.
func TestRouterFollowsTable(t *testing.T) {
	_, addr := startController(t, ControllerConfig{RingSeed: 42})

	// Two fake shards with live session listeners so DialShard connects.
	sessionAddr := func() (net.Listener, string) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				conn.Close()
			}
		}()
		t.Cleanup(func() { l.Close() })
		return l, l.Addr().String()
	}
	_, addr1 := sessionAddr()
	_, addr2 := sessionAddr()

	s1 := joinShard(t, addr, 1, addr1)
	defer s1.conn.Close()
	s1.tableWith(1)

	rt, err := NewRouter(RouterConfig{
		DialControl: tcpDialer(addr),
		DialShard:   func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	shard, got, _, err := rt.Lookup(77)
	if err != nil || shard != 1 || got != addr1 {
		t.Fatalf("lookup (%d, %q, %v), want shard 1 at %q", shard, got, err, addr1)
	}

	// A device dialer connects and reports no move while the owner holds.
	dial := rt.Dialer(77)
	conn, moved, err := dial()
	if err != nil || moved {
		t.Fatalf("first dial (moved %v, err %v)", moved, err)
	}
	conn.Close()

	// Membership change: shard 1 dies, shard 2 joins. The device must
	// re-route, and the dialer must flag the move exactly once.
	s2 := joinShard(t, addr, 2, addr2)
	defer s2.conn.Close()
	s2.tableWith(1, 2) // wait until the controller knows both
	s1.conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		tbl := rt.Table()
		if len(tbl.Shards) == 1 && tbl.Shards[0].ShardID == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router table never converged: %+v", rt.Table())
		}
		time.Sleep(time.Millisecond)
	}
	conn, moved, err = dial()
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("dial after failover did not report a move")
	}
	conn.Close()
	conn, moved, err = dial()
	if err != nil {
		t.Fatal(err)
	}
	if moved {
		t.Fatal("steady-state dial reported a move")
	}
	conn.Close()
}

// TestRouterSurvivesControllerBounce: losing the watcher conn redials
// and resubscribes transparently.
func TestRouterSurvivesControllerBounce(t *testing.T) {
	c, addr := startController(t, ControllerConfig{RingSeed: 42})
	s1 := joinShard(t, addr, 1, "a:1")
	defer s1.conn.Close()
	s1.tableWith(1)

	rt, err := NewRouter(RouterConfig{DialControl: tcpDialer(addr)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	epoch1 := rt.Table().Epoch

	// Kill the watcher conn server-side: the router must resubscribe and
	// keep receiving pushes.
	c.mu.Lock()
	for w := range c.watchers {
		w.conn.Close()
	}
	c.mu.Unlock()

	s2 := joinShard(t, addr, 2, "b:2")
	defer s2.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tbl := rt.Table()
		if len(tbl.Shards) == 2 && tbl.Epoch > epoch1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never recovered past the bounce: %+v", rt.Table())
		}
		time.Sleep(time.Millisecond)
	}
}
