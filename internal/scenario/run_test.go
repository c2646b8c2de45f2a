package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"etrain/internal/fleet"
)

// smallDirect is a fast direct-engine scenario used by the run tests.
func smallDirect() *Scenario {
	return &Scenario{
		Name:    "small",
		Seed:    21,
		Horizon: Duration(time.Hour),
		Fleet:   Fleet{Devices: 6},
		// The healthy run saves ~32% of transmit energy; a broken Θ=0
		// scheduler drips instead of batching and saves only ~14%, so a
		// 0.2 floor cleanly separates them.
		Assert: []Assertion{
			{Metric: "devices", Min: f64(6), Max: f64(6)},
			{Metric: "saving_mean", Min: f64(0.2)},
		},
	}
}

// TestRunBrokenThetaFailsAssertions is the negative test the corpus
// assertions exist for: with Θ forced to 0 the scheduler may never
// wait, savings collapse, and the saving_mean predicate must flip the
// report to FAIL. The same scenario with the default Θ passes.
func TestRunBrokenThetaFailsAssertions(t *testing.T) {
	s := smallDirect()
	rep, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("healthy scenario failed its assertions: %+v", rep.Assertions)
	}

	broken := smallDirect()
	broken.Theta = f64(0)
	rep, err = Run(broken, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("theta=0 run passed; assertions are not catching a broken scheduler: %+v", rep.Assertions)
	}
	caught := false
	for _, a := range rep.Assertions {
		if a.Metric == "saving_mean" && !a.Pass {
			caught = true
			if a.Observed >= 0.2 {
				t.Errorf("theta=0 saving %g not below the floor", a.Observed)
			}
		}
	}
	if !caught {
		t.Errorf("saving_mean assertion did not fail: %+v", rep.Assertions)
	}
}

// TestRunRejectsInvalid ensures Run validates before executing.
func TestRunRejectsInvalid(t *testing.T) {
	s := smallDirect()
	s.Fleet.Devices = 0
	if _, err := Run(s, Options{}); err == nil || !strings.Contains(err.Error(), "devices") {
		t.Errorf("invalid scenario ran: %v", err)
	}
}

// TestTimelineEventsChangeOutcome checks each timeline action actually
// reaches the simulation: adding the event must move the fleet's energy
// aggregates relative to the event-free baseline.
func TestTimelineEventsChangeOutcome(t *testing.T) {
	base := smallDirect()
	base.Assert = nil
	baseRep, err := Run(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]Event{
		"heartbeat_schedule": {At: Duration(10 * time.Minute), Action: ActionHeartbeatSchedule, Factor: 2},
		"app_install":        {At: Duration(10 * time.Minute), Action: ActionAppInstall, App: "whatsapp"},
		"app_uninstall":      {At: Duration(10 * time.Minute), Action: ActionAppUninstall, App: "qq"},
		"reboot":             {At: Duration(10 * time.Minute), Action: ActionReboot, Duration: Duration(10 * time.Minute)},
		"bandwidth_regime":   {At: Duration(10 * time.Minute), Action: ActionBandwidthRegime, Regime: "indoor"},
	}
	for name, ev := range events {
		t.Run(name, func(t *testing.T) {
			s := smallDirect()
			s.Assert = nil
			s.Timeline = []Event{ev}
			rep, err := Run(s, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Total.WithJMean == baseRep.Total.WithJMean &&
				rep.Total.WithoutJMean == baseRep.Total.WithoutJMean &&
				rep.Total.DelayMeanS == baseRep.Total.DelayMeanS {
				t.Errorf("%s left the report unchanged (withJ=%g withoutJ=%g delay=%g)",
					name, rep.Total.WithJMean, rep.Total.WithoutJMean, rep.Total.DelayMeanS)
			}
			if rep.Events != 1 {
				t.Errorf("report counts %d events, want 1", rep.Events)
			}
		})
	}
}

// TestFaultFreeLoopbackIsClean runs the loopback engine with no faults:
// every session must heal-free — zero reconnects, zero degradation,
// zero decision loss — and the transport summary must say so.
func TestFaultFreeLoopbackIsClean(t *testing.T) {
	s := &Scenario{
		Name:    "clean-loopback",
		Seed:    22,
		Horizon: Duration(time.Hour),
		Engine:  EngineLoopback,
		Fleet:   Fleet{Devices: 4},
	}
	rep, err := Run(s, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Transport
	if tr == nil {
		t.Fatal("loopback report has no transport summary")
	}
	if tr.SessionsOK != 4 || tr.Failed != 0 || tr.Degraded != 0 || tr.Unreconciled != 0 ||
		tr.DecisionLoss != 0 || tr.Reconnects != 0 || tr.Resumes != 0 || tr.Replays != 0 || tr.Restarts != 0 {
		t.Errorf("fault-free loopback not clean: %+v", tr)
	}
	if !rep.Pass {
		t.Errorf("report with no assertions should pass")
	}
}

// TestDirectScenarioMatchesFleet ties the two engines that decide for a
// synthesized device: a direct scenario with no timeline and fleet.Run
// with one shard, over the same seed, mix, horizon, Θ and k, must fold
// every class into the same aggregate, bit for bit.
func TestDirectScenarioMatchesFleet(t *testing.T) {
	s := &Scenario{
		Name:    "cross-path",
		Seed:    33,
		Horizon: Duration(20 * time.Minute),
		Theta:   f64(3),
		K:       12,
		Fleet:   Fleet{Devices: 40},
	}
	c, err := s.compile()
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.run(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(fleet.Config{
		Devices:   s.Fleet.Devices,
		ShardSize: s.Fleet.Devices,
		Seed:      s.Seed,
		Horizon:   s.Horizon.D(),
		Theta:     c.theta,
		K:         c.k,
		Mix:       c.mix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != len(set.byClass) {
		t.Fatalf("fleet has %d classes, scenario %d", len(rep.Classes), len(set.byClass))
	}
	for i, row := range rep.Classes {
		want, err := json.Marshal(row.Agg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(set.byClass[i])
		if err != nil {
			t.Fatal(err)
		}
		if row.Agg.Devices == 0 {
			t.Errorf("class %s drew no devices", row.Label)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("class %s: scenario aggregate differs from fleet's\nscenario %s\nfleet    %s", row.Label, got, want)
		}
	}
}
