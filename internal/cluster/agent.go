package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"etrain/internal/wire"
)

// DefaultBeatEvery is the default shard beat cadence (needs a Sleep).
const DefaultBeatEvery = time.Second

// AgentConfig parameterizes a shard's control-plane agent.
type AgentConfig struct {
	// ShardID identifies this shard on the ring. Required (nonzero).
	ShardID uint64
	// Advertise is the session address published in the route table —
	// what clients dial to reach this shard. Required.
	Advertise string
	// Dial opens a control connection to the controller. Required.
	Dial func() (net.Conn, error)
	// Stats, when non-nil, supplies the counter snapshot each beat
	// carries; the agent stamps ShardID and Seq. Nil beats carry only
	// those two.
	Stats func() wire.ShardStats
	// BeatEvery is the beat cadence handed to Sleep (DefaultBeatEvery if
	// zero).
	BeatEvery time.Duration
	// Sleep imposes the beat cadence and redial backoff; it must be
	// ctx-aware or short for RunAgent to stop promptly. Required — an
	// agent that never sleeps would flood the controller.
	Sleep func(time.Duration)
	// OnRouteTable, when non-nil, receives every route table the
	// controller pushes (monotone epochs per connection).
	OnRouteTable func(wire.RouteTable)
	// Logf, when non-nil, receives connection and push reports.
	Logf func(format string, args ...any)
}

// RunAgent registers the shard with the controller and keeps it
// registered until ctx is done: ShardHello on connect, then one
// ShardStats beat every BeatEvery. A lost control connection is redialed
// with the same cadence — the controller treats the gap as a death and
// the re-registration as a join, which is exactly right: routing moved
// away and comes back.
//
// The route-table reader goroutine spawned per connection is joined
// before the next redial and before RunAgent returns.
func RunAgent(ctx context.Context, cfg AgentConfig) error {
	if cfg.ShardID == 0 {
		return fmt.Errorf("cluster: agent: ShardID is required")
	}
	if cfg.Advertise == "" {
		return fmt.Errorf("cluster: agent: Advertise is required")
	}
	if cfg.Dial == nil {
		return fmt.Errorf("cluster: agent: Dial is required")
	}
	if cfg.Sleep == nil {
		return fmt.Errorf("cluster: agent: Sleep is required")
	}
	if cfg.BeatEvery <= 0 {
		cfg.BeatEvery = DefaultBeatEvery
	}

	var seq uint64
	for ctx.Err() == nil {
		conn, err := cfg.Dial()
		if err != nil {
			if cfg.Logf != nil {
				cfg.Logf("agent %d: control dial: %v", cfg.ShardID, err)
			}
			cfg.Sleep(cfg.BeatEvery)
			continue
		}
		agentConn(ctx, cfg, conn, &seq)
		if ctx.Err() == nil {
			cfg.Sleep(cfg.BeatEvery)
		}
	}
	return ctx.Err()
}

// agentConn runs one control connection to completion: register, then
// beat until the connection or the context dies. It closes conn and
// joins the reader before returning.
func agentConn(ctx context.Context, cfg AgentConfig, conn net.Conn, seq *uint64) {
	defer conn.Close()
	w := wire.NewWriter(conn)
	if err := w.Write(wire.ShardHello{ShardID: cfg.ShardID, Addr: cfg.Advertise}); err != nil {
		if cfg.Logf != nil {
			cfg.Logf("agent %d: hello: %v", cfg.ShardID, err)
		}
		return
	}

	// The reader consumes route-table pushes; it exits on the first read
	// error, and closing conn (our defer, or the write loop breaking out)
	// guarantees that error arrives.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		r := wire.NewReader(conn)
		for {
			m, err := r.Next()
			if err != nil {
				return
			}
			if t, ok := m.(wire.RouteTable); ok && cfg.OnRouteTable != nil {
				cfg.OnRouteTable(t)
			}
		}
	}()
	// Close before joining (defers run LIFO): the reader is blocked in
	// Next and only the close releases it.
	defer func() {
		conn.Close()
		<-readerDone
	}()

	for ctx.Err() == nil {
		var beat wire.ShardStats
		if cfg.Stats != nil {
			beat = cfg.Stats()
		}
		*seq++
		beat.ShardID, beat.Seq = cfg.ShardID, *seq
		if err := w.Write(beat); err != nil {
			if cfg.Logf != nil {
				cfg.Logf("agent %d: beat: %v", cfg.ShardID, err)
			}
			return
		}
		cfg.Sleep(cfg.BeatEvery)
	}
}
