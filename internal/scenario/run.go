package scenario

import (
	"bytes"
	"fmt"
	"reflect"

	"etrain/internal/baseline"
	"etrain/internal/client"
	"etrain/internal/fleet"
	"etrain/internal/parallel"
	"etrain/internal/radio"
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
}

// deviceResult is one device's measured outcome.
type deviceResult struct {
	fleet.DeviceOutcome

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
	set, err := c.run(opts)
	if err != nil {
		return nil, err
	}
	return buildReport(c, hash, set), nil
}

// run measures every device and folds the outcomes into one set.
func (c *compiled) run(opts Options) (*outcomeSet, error) {
	workers := opts.Workers
	switch {
	case workers == 0:
		workers = 1
	case workers < 0:
		workers = parallel.Workers(0)
	}

	var lb *rig
	if c.loopback {
		var err error
		if lb, err = newRig(c); err != nil {
			return nil, err
		}
		defer lb.close()
	}

	devices := c.sc.Fleet.Devices
	results := make([]*deviceResult, devices)
	runErr := parallel.ForEach(parallel.NewLimit(workers), devices, func(i int) error {
		out, err := runScenarioDevice(c, lb, i)
		if err != nil {
			return fmt.Errorf("device %d: %w", i, err)
		}
		results[i] = out
		return nil
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
	return set, nil
}

// runScenarioDevice plans, builds and measures one device: in-process
// through fleet's run pair under the direct engine, over the wire under
// loopback.
func runScenarioDevice(c *compiled, lb *rig, i int) (*deviceResult, error) {
	plan, err := planDevice(c, i)
	if err != nil {
		return nil, err
	}
	pd, err := plan.build()
	if err != nil {
		return nil, err
	}
	base := sim.Config{
		Horizon:   pd.dev.Horizon,
		Beats:     pd.dev.Beats,
		Packets:   pd.dev.Packets,
		Bandwidth: pd.trace,
		Power:     radio.GalaxyS43G(),
		Radio:     c.radio,
		Seed:      pd.dev.Seed,
	}
	out := &deviceResult{}
	if c.loopback {
		err = runLoopbackDevice(c, lb, pd, base, out)
	} else {
		out.DeviceOutcome, err = fleet.RunPair(base, c.theta, c.k)
	}
	if err != nil {
		return nil, err
	}
	out.ClassIndex = pd.dev.ClassIndex
	return out, nil
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

// runLoopbackDevice measures the device's baseline run in-process, then
// replays the device over an etraind session through the self-healing
// client, under the rig's faults, and compares the outcome against the
// fault-free local replay. A client error is not fatal to the run: it
// marks the session failed, which the sessions_failed metric (and the
// default report) surfaces.
func runLoopbackDevice(c *compiled, lb *rig, pd *plannedDevice, base sim.Config, out *deviceResult) error {
	base.Strategy = baseline.NewImmediate()
	without, err := sim.RunMetrics(base)
	if err != nil {
		return fmt.Errorf("without eTrain: %w", err)
	}
	out.WithoutJ = without.EnergyJ
	sess, err := server.SessionFromDevice(pd.dev, c.theta, c.k)
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
	out.WithJ = got.Stats.EnergyJ
	out.DelayS = got.Stats.AvgDelayS
	out.Violation = got.Stats.ViolationRatio
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
