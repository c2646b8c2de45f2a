package server

import (
	"fmt"
	"io"
	"net"
	"sort"

	"etrain/internal/fleet"
	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/wire"
)

// Session is one device's wire-ready replay: the Hello and the
// time-ordered event frames a client sends. Events interleave heartbeats
// and cargo by instant so the server's engine can execute each slot as
// soon as its inputs are complete.
type Session struct {
	Hello  wire.Hello
	Events []wire.Message
}

// SessionFromDevice converts a synthesized fleet device into its wire
// replay under the given eTrain parameters. It fails on packets whose
// profile has no wire kind (profile.KindOf). A device carrying an explicit
// beat schedule (diurnal synthesis) replays those beats verbatim.
func SessionFromDevice(dev fleet.Device, theta float64, k int) (Session, error) {
	beats := dev.Beats
	if beats == nil {
		beats = heartbeat.Merge(dev.Trains, dev.Horizon, nil)
	}
	events := make([]wire.Message, 0, len(beats)+len(dev.Packets))
	for _, b := range beats {
		events = append(events, wire.HeartbeatObserved{At: b.At, App: b.App, Size: b.Size})
	}
	for _, p := range dev.Packets {
		kind, ok := profile.KindOf(p.Profile)
		if !ok {
			return Session{}, fmt.Errorf("server: device %d packet %d: profile %q has no wire kind", dev.Index, p.ID, p.Profile.Name())
		}
		events = append(events, wire.CargoArrival{
			ID:       uint64(p.ID),
			At:       p.ArrivedAt,
			App:      p.App,
			Size:     p.Size,
			Profile:  kind,
			Deadline: p.Profile.Deadline(),
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return eventAt(events[i]) < eventAt(events[j]) })
	return Session{
		Hello: wire.Hello{
			DeviceID: uint64(dev.Index),
			Seed:     dev.BandwidthSeed,
			Theta:    theta,
			K:        uint32(k),
			Horizon:  dev.Horizon,
		},
		Events: events,
	}, nil
}

// eventAt returns an event frame's instant for time-ordering.
func eventAt(m wire.Message) int64 {
	switch v := m.(type) {
	case wire.HeartbeatObserved:
		return int64(v.At)
	case wire.CargoArrival:
		return int64(v.At)
	default:
		return 0
	}
}

// DeviceOutcome is what one driven session produced: the server's
// Decision stream and its final metrics snapshot.
type DeviceOutcome struct {
	Decisions []wire.Decision
	Stats     wire.StatsSnapshot
}

// Drive replays one session over conn and collects the server's output.
// It is the protocol's reference client, used only by tests (equivalence,
// soak and cluster); cmd/etrain-load runs client.Run instead. Drive
// writes from the calling goroutine while a spawned goroutine consumes
// server frames, so it works over synchronous transports like net.Pipe;
// it closes conn before returning.
func Drive(conn net.Conn, s Session) (*DeviceOutcome, error) {
	defer conn.Close()

	type result struct {
		out *DeviceOutcome
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := collect(conn, s.Hello.DeviceID)
		done <- result{out: out, err: err}
	}()

	w := wire.NewWriter(conn)
	writeErr := func() error {
		if err := w.Write(s.Hello); err != nil {
			return fmt.Errorf("server: client hello: %w", err)
		}
		for _, ev := range s.Events {
			if err := w.Write(ev); err != nil {
				return fmt.Errorf("server: client event: %w", err)
			}
		}
		if err := w.Write(wire.Ack{Seq: uint64(len(s.Events)) + 1}); err != nil {
			return fmt.Errorf("server: client finish ack: %w", err)
		}
		return nil
	}()

	res := <-done
	if res.err != nil {
		return nil, res.err
	}
	if writeErr != nil {
		// The server closed mid-write yet still produced a full protocol
		// exchange; trust the collected outcome only if writes all landed.
		return nil, writeErr
	}
	return res.out, nil
}

// collect reads the server's frames until the closing Ack: the admission
// Ack{0}, then decisions, then StatsSnapshot, then the echoed Ack.
func collect(conn net.Conn, deviceID uint64) (*DeviceOutcome, error) {
	r := wire.NewReader(conn)
	first, err := r.Next()
	if err != nil {
		return nil, fmt.Errorf("server: client reading admission: %w", err)
	}
	if ack, ok := first.(wire.Ack); !ok || ack.Seq != 0 {
		return nil, fmt.Errorf("server: admission frame %v, want ack{0}", first)
	}
	out := &DeviceOutcome{}
	sawStats := false
	for {
		m, err := r.Next()
		if err != nil {
			if err == io.EOF && sawStats {
				return nil, fmt.Errorf("server: connection closed before final ack")
			}
			return nil, fmt.Errorf("server: client reading frame: %w", err)
		}
		switch v := m.(type) {
		case wire.Decision:
			if sawStats {
				return nil, fmt.Errorf("server: decision after stats snapshot")
			}
			out.Decisions = append(out.Decisions, v)
		case wire.StatsSnapshot:
			if v.DeviceID != deviceID {
				return nil, fmt.Errorf("server: stats for device %d, want %d", v.DeviceID, deviceID)
			}
			out.Stats = v
			sawStats = true
		case wire.Ack:
			if !sawStats {
				return nil, fmt.Errorf("server: final ack before stats snapshot")
			}
			return out, nil
		default:
			return nil, fmt.Errorf("server: unexpected %s frame from server", m.MsgType())
		}
	}
}
