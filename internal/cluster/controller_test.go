package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"etrain/internal/wire"
)

// startController serves a controller on a loopback TCP listener and
// tears it down with the test.
func startController(t *testing.T, cfg ControllerConfig) (*Controller, string) {
	t.Helper()
	c := NewController(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			t.Errorf("controller shutdown: %v", err)
		}
	})
	return c, l.Addr().String()
}

// testShard is a hand-driven shard control connection.
type testShard struct {
	t    *testing.T
	conn net.Conn
	r    *wire.Reader
	w    *wire.Writer
	wmu  sync.Mutex
}

// joinShard registers a shard over a fresh control connection.
func joinShard(t *testing.T, addr string, id uint64, advertise string) *testShard {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &testShard{t: t, conn: conn, r: wire.NewReader(conn), w: wire.NewWriter(conn)}
	s.write(wire.ShardHello{ShardID: id, Addr: advertise})
	return s
}

func (s *testShard) write(m wire.Message) {
	s.t.Helper()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.w.Write(m); err != nil {
		s.t.Fatalf("shard write %s: %v", m.MsgType(), err)
	}
}

// tableWith reads pushed frames until a route table whose member set is
// exactly want arrives, bounded by a read deadline.
func (s *testShard) tableWith(want ...uint64) wire.RouteTable {
	s.t.Helper()
	if err := s.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		s.t.Fatal(err)
	}
	for {
		m, err := s.r.Next()
		if err != nil {
			s.t.Fatalf("waiting for route table %v: %v", want, err)
		}
		tbl, ok := m.(wire.RouteTable)
		if !ok {
			continue
		}
		if len(tbl.Shards) != len(want) {
			continue
		}
		match := true
		for i, id := range want {
			if tbl.Shards[i].ShardID != id {
				match = false
				break
			}
		}
		if match {
			return tbl
		}
	}
}

// TestControllerMembership: joins push epoch-increasing tables to every
// member, conn loss removes the member, and entries list ascending IDs.
func TestControllerMembership(t *testing.T) {
	_, addr := startController(t, ControllerConfig{RingSeed: 42})

	s2 := joinShard(t, addr, 2, "b:2")
	t1 := s2.tableWith(2)
	if t1.Seed != 42 || t1.Vnodes != DefaultVnodes {
		t.Fatalf("table carries seed %d vnodes %d, want 42 %d", t1.Seed, t1.Vnodes, DefaultVnodes)
	}

	s1 := joinShard(t, addr, 1, "a:1")
	t2 := s2.tableWith(1, 2)
	if t2.Epoch <= t1.Epoch {
		t.Fatalf("epoch %d after join, was %d", t2.Epoch, t1.Epoch)
	}
	if t2.Shards[0].Addr != "a:1" || t2.Shards[1].Addr != "b:2" {
		t.Fatalf("entries %+v", t2.Shards)
	}
	s1.tableWith(1, 2) // the joiner sees itself too

	// Conn loss is a death: the survivor gets a table without shard 1.
	s1.conn.Close()
	t3 := s2.tableWith(2)
	if t3.Epoch <= t2.Epoch {
		t.Fatalf("epoch %d after death, was %d", t3.Epoch, t2.Epoch)
	}
	s2.conn.Close()
}

// TestControllerDrain: draining removes the shard from the table while
// its registration (and stats flow) stays alive.
func TestControllerDrain(t *testing.T) {
	c, addr := startController(t, ControllerConfig{RingSeed: 42})
	s1 := joinShard(t, addr, 1, "a:1")
	s2 := joinShard(t, addr, 2, "b:2")
	defer s1.conn.Close()
	defer s2.conn.Close()
	s2.tableWith(1, 2)

	if err := c.Drain(1); err != nil {
		t.Fatal(err)
	}
	s2.tableWith(2)

	st := c.Status()
	if len(st.Shards) != 2 {
		t.Fatalf("drain dropped the registration: %+v", st.Shards)
	}
	if !st.Shards[0].Draining || st.Shards[1].Draining {
		t.Fatalf("draining flags: %+v", st.Shards)
	}
	if st.Drains != 1 {
		t.Fatalf("drains %d, want 1", st.Drains)
	}
	if err := c.Drain(99); err == nil {
		t.Fatal("draining an unknown shard succeeded")
	}
	if err := c.Drain(1); err != nil {
		t.Fatalf("re-draining errored: %v", err)
	}
}

// TestControllerBeatsAndStats: a beat and the counter snapshot it
// carries land in Status and Totals, and sweep expiry under a fake clock
// removes a silent shard.
func TestControllerBeatsAndStats(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	c, addr := startController(t, ControllerConfig{RingSeed: 1, BeatTimeout: 10 * time.Second, Clock: clock})
	s1 := joinShard(t, addr, 7, "a:1")
	defer s1.conn.Close()
	s1.tableWith(7)
	s1.write(wire.ShardStats{ShardID: 7, Seq: 3, Accepted: 5, Completed: 4, Active: 1, Decisions: 99, FramesOut: 120})

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Status()
		if len(st.Shards) == 1 && st.Shards[0].BeatSeq == 3 && st.Shards[0].Stats != nil {
			if st.Shards[0].Stats.Decisions != 99 {
				t.Fatalf("stats %+v", st.Shards[0].Stats)
			}
			if st.Shards[0].BeatAgeMS != 0 {
				t.Fatalf("beat age %d with a frozen clock", st.Shards[0].BeatAgeMS)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("beat/stats never landed: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	tot := c.Totals()
	if tot.Accepted != 5 || tot.Decisions != 99 {
		t.Fatalf("totals %+v", tot)
	}

	// Sweep before the timeout: no-op. After: the silent shard dies.
	c.Sweep()
	if len(c.Status().Shards) != 1 {
		t.Fatal("sweep removed a fresh shard")
	}
	mu.Lock()
	now = now.Add(11 * time.Second)
	mu.Unlock()
	c.Sweep()
	if st := c.Status(); len(st.Shards) != 0 || st.Deaths != 1 {
		t.Fatalf("after expiry sweep: %+v", st)
	}
}

// TestControllerWatcher: a watcher subscribing with Ack{0} receives the
// current table immediately and pushes on every epoch change.
func TestControllerWatcher(t *testing.T) {
	_, addr := startController(t, ControllerConfig{RingSeed: 42})
	s1 := joinShard(t, addr, 1, "a:1")
	defer s1.conn.Close()
	s1.tableWith(1)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	watch := &testShard{t: t, conn: conn, r: wire.NewReader(conn), w: wire.NewWriter(conn)}
	watch.write(wire.Ack{Seq: 0})
	watch.tableWith(1)

	s2 := joinShard(t, addr, 2, "b:2")
	defer s2.conn.Close()
	watch.tableWith(1, 2)
}

// TestControllerRejectsBadFirstFrame: a session frame on the control
// port is refused outright.
func TestControllerRejectsBadFirstFrame(t *testing.T) {
	_, addr := startController(t, ControllerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.NewWriter(conn).Write(wire.Hello{DeviceID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.NewReader(conn).Next(); err == nil {
		t.Fatal("controller answered a session Hello on the control port")
	}
}

// TestOpsHandler drives the HTTP surface end to end.
func TestOpsHandler(t *testing.T) {
	c, addr := startController(t, ControllerConfig{RingSeed: 42})
	s1 := joinShard(t, addr, 3, "a:1")
	defer s1.conn.Close()
	s1.tableWith(3)
	s1.write(wire.ShardStats{ShardID: 3, Accepted: 8, Completed: 8, Parked: 2, Resumed: 2})
	deadline := time.Now().Add(5 * time.Second)
	for c.Totals().Accepted != 8 {
		if time.Now().After(deadline) {
			t.Fatal("stats never landed")
		}
		time.Sleep(time.Millisecond)
	}

	ops := httptest.NewServer(c.OpsHandler())
	defer ops.Close()

	resp, err := http.Get(ops.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		"etrain_cluster_route_epoch ",
		"etrain_cluster_shards 1\n",
		"etrain_shard_up{shard=\"3\"} 1\n",
		"etrain_shard_sessions_parked{shard=\"3\"} 2\n",
		"etrain_shard_sessions_resumed{shard=\"3\"} 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	resp, err = http.Get(ops.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.Unmarshal([]byte(readAll(t, resp)), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 1 || st.Shards[0].ID != 3 {
		t.Fatalf("/status %+v", st)
	}

	resp, err = http.Get(ops.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var sr sessionsReport
	if err := json.Unmarshal([]byte(readAll(t, resp)), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Shards != 1 || sr.Totals.Accepted != 8 {
		t.Fatalf("/sessions %+v", sr)
	}

	resp, err = http.Post(ops.URL+"/drain?shard=3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/drain status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if st := c.Status(); !st.Shards[0].Draining {
		t.Fatalf("drain did not take: %+v", st.Shards)
	}
	resp, err = http.Get(ops.URL + "/drain?shard=3")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /drain status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
