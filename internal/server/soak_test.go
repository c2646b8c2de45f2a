package server

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"etrain/internal/fleet"
	"etrain/internal/parallel"
	"etrain/internal/wire"
)

// TestLoopbackSoak replays a synthesized fleet through one server over
// concurrent loopback connections — the CI `serve` job runs it under
// -race — comparing every session's decisions and stats with a direct
// replay, then drains the server and audits the counters: every session
// completed, none errored, nothing left active.
func TestLoopbackSoak(t *testing.T) {
	devices := 1000
	if testing.Short() {
		devices = 64
	}
	const conns = 16
	horizon := 2 * time.Minute

	pop := testPopulation(t)
	srv := New(Config{})
	err := parallel.ForEach(parallel.NewLimit(conns), devices, func(i int) error {
		dev, err := fleet.SynthesizeDevice(7, pop, i, horizon)
		if err != nil {
			return err
		}
		sess, err := SessionFromDevice(dev, testTheta, testK)
		if err != nil {
			return err
		}
		client, serverSide := net.Pipe()
		srvErr := make(chan error, 1)
		go func() { srvErr <- srv.ServeConn(serverSide) }()
		out, err := Drive(client, sess)
		if err != nil {
			return err
		}
		if err := <-srvErr; err != nil {
			return err
		}
		if out.Stats.DeviceID != uint64(i) {
			t.Errorf("device %d: stats echo device %d", i, out.Stats.DeviceID)
		}
		// Every device sends heartbeats, so a session with zero heartbeat
		// transmissions means the engine never ran.
		if out.Stats.Heartbeats == 0 {
			t.Errorf("device %d: no heartbeats transmitted", i)
		}
		// Sessions run on pooled replayers and connection buffers, 16 at
		// a time: every one must match a replay no other session touched.
		frames, err := replayFrames(newReplayer(), sess)
		if err != nil {
			return err
		}
		if want := decisionsOf(frames); !reflect.DeepEqual(out.Decisions, want) {
			t.Errorf("device %d: %d decisions over loopback, %d in a direct replay; they differ", i, len(out.Decisions), len(want))
		}
		for _, m := range frames {
			if want, ok := m.(wire.StatsSnapshot); ok && out.Stats != want {
				t.Errorf("device %d stats:\n got %+v\nwant %+v", i, out.Stats, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("soak: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	s := srv.Stats()
	if s.Completed != uint64(devices) || s.Errored != 0 || s.Panics != 0 || s.Active != 0 {
		t.Errorf("counters after soak: %+v, want %d completed and nothing else", s, devices)
	}
	if s.Decisions == 0 || s.FramesIn == 0 || s.FramesOut == 0 {
		t.Errorf("counters after soak show no traffic: %+v", s)
	}
}
