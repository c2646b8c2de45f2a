package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"

	"etrain/internal/baseline"
	"etrain/internal/client"
	"etrain/internal/core"
	"etrain/internal/parallel"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/sched"
	"etrain/internal/server"
	"etrain/internal/sim"
	"etrain/internal/wire"
)

// degradedRetryEvery is the loopback client's initial degraded-mode
// probe cadence. Scenario sessions are short (tens of events), so the
// cadence must be small enough that a brief outage reconciles instead
// of silently completing locally; it is fixed — part of the engine's
// identity — so reports stay comparable across scenarios.
const degradedRetryEvery = 4

// Options parameterizes an execution without touching the scenario's
// identity: none of these fields can change a report's bytes.
type Options struct {
	// Workers bounds concurrent device runs: n > 0 verbatim, 0
	// sequential, negative one per CPU. The report is byte-identical at
	// every setting.
	Workers int
	// Progress, when non-nil, is invoked after every completed device
	// with (done, total). Calls are serialized.
	Progress func(done, total int)
}

// deviceResult is one device's measured outcome.
type deviceResult struct {
	classIndex int
	withoutJ   float64 // energy without eTrain (transmit on arrival)
	withJ      float64 // energy with eTrain
	delayS     float64 // with-eTrain mean packet delay
	violation  float64 // with-eTrain deadline-violation ratio

	// Loopback transport outcomes; all zero under the direct engine.
	failed       bool
	degraded     bool
	unreconciled bool
	decisionLoss bool
	restarted    bool
	reconnects   int
	resumes      int
	replays      int
	busy         int // wire.Busy frames received (refusals and sheds)
	exhausted    int // busy-retry budget exhaustions
}

// Run validates and executes the scenario, returning its report. The
// report — including its byte-exact text rendering — is a pure function
// of the scenario document; Options only affect speed.
func Run(s *Scenario, opts Options) (*Report, error) {
	c, err := s.compile()
	if err != nil {
		return nil, err
	}
	hash, err := s.ConfigHash()
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	switch {
	case workers == 0:
		workers = 1
	case workers < 0:
		workers = parallel.Workers(0)
	}

	var lb *rig
	if c.loopback {
		if lb, err = newRig(c); err != nil {
			return nil, err
		}
		defer lb.close()
	}

	devices := s.Fleet.Devices
	results := make([]*deviceResult, devices)
	done := 0
	runErr := parallel.ForEachStatus(parallel.NewLimit(workers), devices, func(i int) error {
		out, err := runScenarioDevice(c, lb, i)
		if err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
		results[i] = out
		return nil
	}, func(i int, err error) {
		if err != nil {
			return
		}
		done++
		if opts.Progress != nil {
			opts.Progress(done, devices)
		}
	})
	if runErr != nil {
		return nil, runErr
	}

	// The determinism keystone: outcomes fold strictly in device-index
	// order, so the aggregates are invariant under worker count.
	set, err := newOutcomeSet(c.mix)
	if err != nil {
		return nil, err
	}
	for i := range results {
		if results[i] == nil {
			return nil, fmt.Errorf("scenario: device %d has no result", i)
		}
		if err := set.add(results[i]); err != nil {
			return nil, err
		}
	}
	return buildReport(c, hash, set), nil
}

// runScenarioDevice plans, builds and measures one device.
func runScenarioDevice(c *compiled, lb *rig, i int) (*deviceResult, error) {
	plan, err := planDevice(c, i)
	if err != nil {
		return nil, err
	}
	pd, err := plan.build()
	if err != nil {
		return nil, err
	}
	out := &deviceResult{classIndex: pd.dev.ClassIndex}
	without, err := runOne(c, pd, baseline.NewImmediate())
	if err != nil {
		return nil, fmt.Errorf("without eTrain: %w", err)
	}
	out.withoutJ = without.EnergyJ
	if c.loopback {
		err = runLoopbackDevice(c, lb, pd, out)
	} else {
		err = runDirectDevice(c, pd, out)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runOne executes one in-process run of the planned device — its
// post-timeline beats, cargo and channel — under the given strategy and
// the scenario's radio generation.
func runOne(c *compiled, pd *plannedDevice, strategy sched.Strategy) (sim.Metrics, error) {
	return sim.RunMetrics(sim.Config{
		Horizon:   pd.dev.Horizon,
		Beats:     pd.beats,
		Packets:   pd.packets,
		Bandwidth: pd.trace,
		Power:     radio.GalaxyS43G(),
		Radio:     c.radio,
		Strategy:  strategy,
		Seed:      pd.dev.Seed,
	})
}

// runDirectDevice measures the with-eTrain run in-process.
func runDirectDevice(c *compiled, pd *plannedDevice, out *deviceResult) error {
	strategy, err := core.New(core.Options{Theta: c.theta, K: c.k})
	if err != nil {
		return err
	}
	m, err := runOne(c, pd, strategy)
	if err != nil {
		return fmt.Errorf("with eTrain: %w", err)
	}
	out.withJ = m.EnergyJ
	out.delayS = m.AvgDelayS
	out.violation = m.ViolationRatio
	return nil
}

// sessionFor converts the planned device into its wire replay.
func sessionFor(c *compiled, pd *plannedDevice) (server.Session, error) {
	events := make([]wire.Message, 0, len(pd.beats)+len(pd.packets))
	for _, b := range pd.beats {
		events = append(events, wire.HeartbeatObserved{At: b.At, App: b.App, Size: b.Size})
	}
	for _, p := range pd.packets {
		kind, ok := profile.KindOf(p.Profile)
		if !ok {
			return server.Session{}, fmt.Errorf("device %d packet %d: profile %q has no wire kind", pd.dev.Index, p.ID, p.Profile.Name())
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
	sort.SliceStable(events, func(i, j int) bool { return eventInstant(events[i]) < eventInstant(events[j]) })
	return server.Session{
		Hello: wire.Hello{
			DeviceID: uint64(pd.dev.Index),
			Seed:     pd.dev.BandwidthSeed,
			Theta:    c.theta,
			K:        uint32(c.k),
			Horizon:  pd.dev.Horizon,
		},
		Events: events,
	}, nil
}

func eventInstant(m wire.Message) int64 {
	switch v := m.(type) {
	case wire.HeartbeatObserved:
		return int64(v.At)
	case wire.CargoArrival:
		return int64(v.At)
	default:
		return 0
	}
}

// expectedOutcome replays the session locally through the same
// server.Replayer the server runs: the decision stream and stats a
// fault-free server would have produced, which the networked outcome
// is held to for the zero-decision-loss metric. It also returns the
// encoded size of that fault-free response stream (admission ack
// included), which calibrates the server_restart cut offset.
func expectedOutcome(sess server.Session) (*server.DeviceOutcome, int, error) {
	out := &server.DeviceOutcome{}
	var buf bytes.Buffer
	bw := wire.NewWriter(&buf)
	if err := bw.Write(wire.Ack{Seq: 0}); err != nil {
		return nil, 0, err
	}
	rep, err := server.NewReplayer(sess.Hello, radio.GalaxyS43G(), func(m wire.Message) error {
		switch v := m.(type) {
		case wire.Decision:
			out.Decisions = append(out.Decisions, v)
		case wire.StatsSnapshot:
			out.Stats = v
		}
		return bw.Write(m)
	})
	if err != nil {
		return nil, 0, err
	}
	for _, ev := range sess.Events {
		if err := rep.Apply(ev); err != nil {
			return nil, 0, err
		}
	}
	if err := rep.Apply(wire.Ack{Seq: uint64(len(sess.Events)) + 1}); err != nil {
		return nil, 0, err
	}
	return out, buf.Len(), nil
}

// runLoopbackDevice replays the device over an etraind session through
// the self-healing client, under the rig's faults, and compares the
// outcome against the fault-free local replay. A client error is not
// fatal to the run: it marks the session failed, which the
// sessions_failed metric (and the default report) surfaces.
func runLoopbackDevice(c *compiled, lb *rig, pd *plannedDevice, out *deviceResult) error {
	sess, err := sessionFor(c, pd)
	if err != nil {
		return err
	}
	expected, responseBytes, err := expectedOutcome(sess)
	if err != nil {
		return fmt.Errorf("local replay: %w", err)
	}
	dial, st := lb.dialerFor(c, pd.dev.Index, responseBytes)
	got, runErr := client.Run(client.Config{
		Dial:       dial,
		Seed:       c.sc.Seed,
		RetryEvery: degradedRetryEvery,
	}, sess)
	st.join()
	out.restarted = st.restarted
	if runErr != nil {
		out.failed = true
		return nil
	}
	out.withJ = got.Stats.EnergyJ
	out.delayS = got.Stats.AvgDelayS
	out.violation = got.Stats.ViolationRatio
	out.degraded = got.Degraded
	out.unreconciled = got.CompletedLocally
	out.reconnects = got.Reconnects
	out.resumes = got.Resumes
	out.replays = got.Replays
	out.busy = got.BusyResponses
	out.exhausted = got.BudgetExhausted
	out.decisionLoss = !reflect.DeepEqual(got.Decisions, expected.Decisions) ||
		got.Stats != expected.Stats
	return nil
}
