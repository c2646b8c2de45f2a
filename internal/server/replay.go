package server

import (
	"fmt"
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

// newStrategy builds a session's scheduling strategy from its Hello. A
// package variable so the panic-isolation test can substitute a hostile
// strategy; production sessions always host the core eTrain scheduler.
var newStrategy = func(h wire.Hello) (sched.Strategy, error) {
	return core.New(core.Options{Theta: h.Theta, K: int(h.K), Slot: h.Slot})
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
	engine   *sim.Engine
	pending  []wire.Decision
	emit     func(wire.Message) error
	done     bool
	// profiles holds, per profile family in Kind order, the first profile
	// the session's cargo named (profileFor).
	profiles [profile.KindCloud]profile.Profile
}

// NewReplayer validates the Hello and builds the replayer: the channel
// trace is rebuilt from the Hello's seed, energy is accounted under power
// (server sessions and the client's degraded replays both pass
// radio.GalaxyS43G()), and emit receives every outbound session frame in
// protocol order. An emit error aborts the
// current Apply and is returned as-is (unwrapped), so callers can
// distinguish transport failures from protocol violations.
func NewReplayer(h wire.Hello, power radio.PowerModel, emit func(wire.Message) error) (*Replayer, error) {
	strategy, err := newStrategy(h)
	if err != nil {
		return nil, fmt.Errorf("server: hello: %w", err)
	}
	bw, err := bandwidth.FromSeed(h.Seed, h.Horizon, nil)
	if err != nil {
		return nil, fmt.Errorf("server: hello: channel from seed: %w", err)
	}
	engine, err := sim.NewEngine(sim.Config{
		Horizon:   h.Horizon,
		Beats:     []heartbeat.Beat{},
		Bandwidth: bw,
		Power:     power,
		Strategy:  strategy,
		Seed:      h.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("server: hello: %w", err)
	}
	rp := &Replayer{deviceID: h.DeviceID, engine: engine, emit: emit}
	engine.OnSlot = func(r sim.SlotResult) {
		if len(r.Data) == 0 {
			return
		}
		d := wire.Decision{Slot: r.Slot, Flush: r.Flush, Entries: make([]wire.DecisionEntry, len(r.Data))}
		for i, p := range r.Data {
			d.Entries[i] = wire.DecisionEntry{ID: uint64(p.ID), Start: p.StartedAt}
		}
		rp.pending = append(rp.pending, d)
	}
	return rp, nil
}

// Done reports whether the finish exchange has run.
func (rp *Replayer) Done() bool { return rp.done }

// Apply feeds one client session frame — HeartbeatObserved, CargoArrival,
// or the finish Ack — executing every simulation slot it completes and
// emitting the resulting frames. A protocol or engine error is returned
// wrapped with context; an emit error is returned exactly as emit
// produced it.
//
//etrain:hotpath
func (rp *Replayer) Apply(m wire.Message) error {
	if rp.done {
		return fmt.Errorf("server: %s frame after finish", m.MsgType())
	}
	switch v := m.(type) {
	case wire.HeartbeatObserved:
		b := heartbeat.Beat{At: v.At, App: v.App, Size: v.Size}
		if err := rp.engine.AddBeat(b); err != nil {
			return fmt.Errorf("server: %w", err)
		}
		if err := rp.engine.Advance(v.At); err != nil {
			return fmt.Errorf("server: %w", err)
		}
		return rp.flush()
	case wire.CargoArrival:
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
	case wire.Ack:
		return rp.finish(v)
	default:
		return fmt.Errorf("server: unexpected %s frame mid-session", m.MsgType())
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
	res, err := rp.engine.Finish()
	if err != nil {
		return fmt.Errorf("server: finish: %w", err)
	}
	if err := rp.flush(); err != nil {
		return err
	}
	m := res.Metrics()
	snap := wire.StatsSnapshot{
		DeviceID:       rp.deviceID,
		EnergyJ:        m.EnergyJ,
		AvgDelayS:      m.AvgDelayS,
		ViolationRatio: m.ViolationRatio,
		DataPackets:    uint64(m.DataPackets),
		Heartbeats:     uint64(m.Heartbeats),
		ForcedFlush:    uint64(m.ForcedFlush),
	}
	if err := rp.emit(snap); err != nil {
		return err
	}
	if err := rp.emit(wire.Ack{Seq: ack.Seq}); err != nil {
		return err
	}
	rp.done = true
	return nil
}

// flush emits and clears the buffered Decision frames. The pending slice's
// backing array is retained across flushes so steady-state slots buffer
// without allocating; the Entries slices themselves are freshly built per
// decision because emit may journal the frame for resume replay.
//
//etrain:hotpath
func (rp *Replayer) flush() error {
	for i, d := range rp.pending {
		if err := rp.emit(d); err != nil {
			// The failed frame is dropped, matching the historical
			// pop-then-emit order; later frames stay pending.
			rp.pending = rp.pending[i+1:]
			return err
		}
	}
	for i := range rp.pending {
		rp.pending[i] = wire.Decision{}
	}
	rp.pending = rp.pending[:0]
	return nil
}
