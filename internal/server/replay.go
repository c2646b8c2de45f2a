package server

import (
	"fmt"
	"sync"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/core"
	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/sched"
	"etrain/internal/sim"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

// newStrategy returns a session's scheduling strategy for its Hello,
// given prev, the strategy of the pooled replayer's previous session (nil
// for a new replayer). A package variable so the panic-isolation test can
// substitute a hostile strategy; production sessions always host the core
// eTrain scheduler, re-optioned in place when the replayer already holds
// one.
var newStrategy = func(h wire.Hello, prev sched.Strategy) (sched.Strategy, error) {
	opts := core.Options{Theta: h.Theta, K: int(h.K), Slot: h.Slot}
	if e, ok := prev.(*core.ETrain); ok {
		return e, e.Reset(opts)
	}
	return core.New(opts)
}

// Replayer turns a session's inbound wire frames into its outbound wire
// frames: one incremental sim.Engine driven event by event, emitting the
// Decision stream, the final StatsSnapshot and the echoed finish Ack.
//
// It is the single code path behind the protocol — the server's live
// sessions and the client's degraded-mode local fallback both drive a
// Replayer — which is what makes a device's frame stream a pure function
// of its Hello and events, identical no matter which side of a dead
// connection produced it (DESIGN.md §11).
type Replayer struct {
	// deviceID is the Hello's, echoed in the StatsSnapshot.
	deviceID uint64
	// engine runs summary-only: the protocol reads each executed slot's
	// (ID, StartedAt) pairs through OnSlot and the run's Metrics, nothing
	// else.
	engine   sim.Engine
	strategy sched.Strategy
	trace    bandwidth.Trace
	pending  []wire.Decision
	// entries is the arena the decisions' Entries are cut from. It only
	// grows within a session and is emptied only by reset, so every
	// decision a sink keeps stays intact for the session; a replayer whose
	// decisions a caller keeps is never returned to the pool.
	entries []wire.DecisionEntry
	// out is the frame each emitted message is handed to the sink in.
	out  wire.Frame
	sink sink
	done bool
	// profiles holds, per profile family in Kind order, the first profile
	// the session's cargo named (profileFor).
	profiles [profile.KindCloud]profile.Profile
}

// sink receives a Replayer's outbound session frames in protocol order:
// Decisions, then the StatsSnapshot, then the echoed finish Ack. The frame
// is the replayer's and is reused for the next emission; a Decision's
// Entries stay valid until the replayer is reset.
type sink interface {
	emit(f *wire.Frame) error
}

// funcSink is the sink behind NewReplayer's emit func: it boxes each frame
// into a wire.Message.
type funcSink func(wire.Message) error

func (fs funcSink) emit(f *wire.Frame) error {
	switch f.Type {
	case wire.TypeDecision:
		return fs(f.Decision)
	case wire.TypeStatsSnapshot:
		return fs(f.Stats)
	default:
		return fs(f.Ack)
	}
}

// replayerPool holds the replayers of cleanly completed server sessions
// (putReplayer); NewReplayer takes from it.
var replayerPool = sync.Pool{New: func() any { return newReplayer() }}

// newReplayer returns an empty replayer whose engine reports its slots to
// it; reset readies it for a session.
func newReplayer() *Replayer {
	rp := &Replayer{}
	rp.engine.OnSlot = rp.onSlot
	return rp
}

// NewReplayer validates the Hello and readies a replayer for it: the
// channel trace is rebuilt from the Hello's seed, energy is accounted
// under power (server sessions and the client's degraded replays both
// pass radio.GalaxyS43G()), and emit receives every outbound session
// frame in protocol order. An emit error aborts the current Apply and is
// returned as-is (unwrapped), so callers can distinguish transport
// failures from protocol violations. The replayer comes from a pool of
// completed server sessions' replayers, re-initialised in place; it is
// the caller's, and only a server session that completes returns its
// replayer to the pool. The Entries of the Decisions emit receives stay
// valid for the replayer's life.
func NewReplayer(h wire.Hello, power radio.PowerModel, emit func(wire.Message) error) (*Replayer, error) {
	return getReplayer(h, power, funcSink(emit))
}

// getReplayer takes a replayer from the pool and readies it for a session
// opened by h, emitting into out.
func getReplayer(h wire.Hello, power radio.PowerModel, out sink) (*Replayer, error) {
	rp := replayerPool.Get().(*Replayer)
	if err := rp.reset(h, power, out); err != nil {
		return nil, err
	}
	return rp, nil
}

// putReplayer returns the replayer of a cleanly completed session to the
// pool. It drops the sink, so the pool does not keep the session alive.
func putReplayer(rp *Replayer) {
	rp.sink = nil
	replayerPool.Put(rp)
}

// reset re-initialises rp in place for a session opened by h, keeping
// only buffer capacity: nothing of an earlier session, finished or
// abandoned, reaches the new one.
func (rp *Replayer) reset(h wire.Hello, power radio.PowerModel, out sink) error {
	strategy, err := newStrategy(h, rp.strategy)
	if err != nil {
		return fmt.Errorf("server: hello: %w", err)
	}
	rp.strategy = strategy
	if err := bandwidth.FromSeedInto(&rp.trace, h.Seed, h.Horizon, nil); err != nil {
		return fmt.Errorf("server: hello: channel from seed: %w", err)
	}
	err = rp.engine.Reset(sim.Config{
		Horizon:   h.Horizon,
		Beats:     []heartbeat.Beat{},
		Bandwidth: &rp.trace,
		Power:     power,
		Strategy:  strategy,
		Seed:      h.Seed,
	})
	if err != nil {
		return fmt.Errorf("server: hello: %w", err)
	}
	rp.deviceID = h.DeviceID
	rp.sink = out
	rp.done = false
	clear(rp.profiles[:])
	clear(rp.pending)
	rp.pending = rp.pending[:0]
	rp.entries = rp.entries[:0]
	return nil
}

// onSlot is the engine's OnSlot: it buffers one Decision per executed
// slot that transmitted data, its Entries cut from the arena.
//
//etrain:hotpath
func (rp *Replayer) onSlot(r sim.SlotResult) {
	if len(r.Data) == 0 {
		return
	}
	from := len(rp.entries)
	for _, p := range r.Data {
		rp.entries = append(rp.entries, wire.DecisionEntry{ID: uint64(p.ID), Start: p.StartedAt})
	}
	to := len(rp.entries)
	rp.pending = append(rp.pending, wire.Decision{Slot: r.Slot, Flush: r.Flush, Entries: rp.entries[from:to:to]})
}

// Done reports whether the finish exchange has run.
func (rp *Replayer) Done() bool { return rp.done }

// Apply feeds one client session frame — HeartbeatObserved, CargoArrival,
// or the finish Ack — executing every simulation slot it completes and
// emitting the resulting frames. A protocol or engine error is returned
// wrapped with context; an emit error is returned exactly as emit
// produced it.
func (rp *Replayer) Apply(m wire.Message) error {
	var ev inbound
	ev.setMessage(m)
	return rp.apply(&ev)
}

// apply is Apply on a by-value event, the form a server session queues.
//
//etrain:hotpath
func (rp *Replayer) apply(ev *inbound) error {
	if rp.done {
		return fmt.Errorf("server: %s frame after finish", ev.typ)
	}
	switch ev.typ {
	case wire.TypeHeartbeatObserved:
		v := &ev.beat
		b := heartbeat.Beat{At: v.At, App: v.App, Size: v.Size}
		if err := rp.engine.AddBeat(b); err != nil {
			return fmt.Errorf("server: %w", err)
		}
		if err := rp.engine.Advance(v.At); err != nil {
			return fmt.Errorf("server: %w", err)
		}
		return rp.flush()
	case wire.TypeCargoArrival:
		v := &ev.cargo
		prof, err := rp.profileFor(v.Profile, v.Deadline)
		if err != nil {
			return fmt.Errorf("server: cargo %d: %w", v.ID, err)
		}
		p := workload.Packet{
			ID:        int(v.ID),
			App:       v.App,
			ArrivedAt: v.At,
			Size:      v.Size,
			Profile:   prof,
		}
		if err := rp.engine.AddPacket(p); err != nil {
			return fmt.Errorf("server: %w", err)
		}
		if err := rp.engine.Advance(v.At); err != nil {
			return fmt.Errorf("server: %w", err)
		}
		return rp.flush()
	case wire.TypeAck:
		return rp.finish(ev.ack)
	default:
		return fmt.Errorf("server: unexpected %s frame mid-session", ev.typ)
	}
}

// profileFor returns the profile of the given family and deadline,
// reusing the one an earlier arrival of the session built. A device's
// cargo names one deadline per family, so one profile per family serves a
// whole session; deadlines come from the client, so an arrival naming
// another deadline builds its own profile instead of growing the cache.
// A profile is immutable and a pure function of its kind and deadline, so
// sharing it changes no cost.
//
//etrain:hotpath
func (rp *Replayer) profileFor(kind profile.Kind, deadline time.Duration) (profile.Profile, error) {
	i := int(kind) - int(profile.KindMail)
	if i < 0 || i >= len(rp.profiles) {
		return profile.New(kind, deadline)
	}
	if p := rp.profiles[i]; p != nil && p.Deadline() == deadline {
		return p, nil
	}
	prof, err := profile.New(kind, deadline)
	if err != nil {
		return nil, err
	}
	if rp.profiles[i] == nil {
		rp.profiles[i] = prof
	}
	return prof, nil
}

// finish runs the engine to the horizon and emits the closing frames: the
// flush decisions, the StatsSnapshot, and the echoed Ack.
func (rp *Replayer) finish(ack wire.Ack) error {
	if _, err := rp.engine.Finish(); err != nil {
		return fmt.Errorf("server: finish: %w", err)
	}
	if err := rp.flush(); err != nil {
		return err
	}
	m := rp.engine.Metrics()
	rp.out.Type = wire.TypeStatsSnapshot
	rp.out.Stats = wire.StatsSnapshot{
		DeviceID:       rp.deviceID,
		EnergyJ:        m.EnergyJ,
		AvgDelayS:      m.AvgDelayS,
		ViolationRatio: m.ViolationRatio,
		DataPackets:    uint64(m.DataPackets),
		Heartbeats:     uint64(m.Heartbeats),
		ForcedFlush:    uint64(m.ForcedFlush),
	}
	if err := rp.sink.emit(&rp.out); err != nil {
		return err
	}
	rp.out.Type = wire.TypeAck
	rp.out.Ack = wire.Ack{Seq: ack.Seq}
	if err := rp.sink.emit(&rp.out); err != nil {
		return err
	}
	rp.done = true
	return nil
}

// flush emits and clears the buffered Decision frames. The pending slice's
// backing array is retained across flushes, and the Entries live in the
// arena, so steady-state slots buffer and emit without allocating.
//
//etrain:hotpath
func (rp *Replayer) flush() error {
	for i := range rp.pending {
		rp.out.Type = wire.TypeDecision
		rp.out.Decision = rp.pending[i]
		if err := rp.sink.emit(&rp.out); err != nil {
			// The failed frame is dropped, matching the historical
			// pop-then-emit order; later frames stay pending.
			rp.pending = rp.pending[i+1:]
			return err
		}
	}
	rp.pending = rp.pending[:0]
	return nil
}
