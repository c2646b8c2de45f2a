package sim_test

import (
	"testing"
	"time"

	"etrain/internal/core"
	"etrain/internal/fleet"
	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/sim"
	"etrain/internal/workload"
)

// radioColumn returns the radio models a run can account energy under: nil
// (Config.Power, the 3G model) and every named model.
func radioColumn(t *testing.T) []radio.Model {
	t.Helper()
	models := []radio.Model{nil}
	for _, name := range radio.ModelNames() {
		m, err := radio.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

// TestRunMetricsMatchesRun checks that the summary-only run the fleet uses
// reports exactly Run's Metrics, over the differential test's strategy
// space and devices, every tenth with no cargo at all, and every radio
// model.
func TestRunMetricsMatchesRun(t *testing.T) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	models := radioColumn(t)
	const devices = 420
	for i := 0; i < devices; i++ {
		c := skipCaseFor(i)
		cfg := skipConfig(t, pop, i, c)
		if i%10 == 9 {
			cfg.Packets = nil
		}
		cfg.Radio = models[i%len(models)]
		seed := int64(i)
		res, err := sim.Run(withStrategy(cfg, c, false, seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunMetrics(withStrategy(cfg, c, false, seed))
		if err != nil {
			t.Fatal(err)
		}
		if want := res.Metrics(); got != want {
			t.Fatalf("device %d (%s, radio %v): RunMetrics differs from Run:\n got %+v\nwant %+v", i, c.name, cfg.Radio, got, want)
		}
	}
}

// TestRunEnergyMatchesTimeline checks, under every radio model, that the
// energy the engine streams as it transmits equals the energy accounted
// afterwards from the run's recorded timeline.
func TestRunEnergyMatchesTimeline(t *testing.T) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range radioColumn(t) {
		for i := 0; i < 60; i++ {
			c := skipCaseFor(i)
			cfg := skipConfig(t, pop, i, c)
			cfg.Radio = m
			res, err := sim.Run(withStrategy(cfg, c, false, int64(i)))
			if err != nil {
				t.Fatal(err)
			}
			var want radio.Energy
			if m == nil {
				want = res.Timeline.AccountEnergy(cfg.Power, cfg.Horizon+cfg.Power.TailTime())
			} else {
				want = res.Timeline.AccountEnergyModel(m, cfg.Horizon+m.TailTime())
			}
			if res.Energy != want {
				t.Fatalf("device %d (radio %v): run energy %+v, timeline accounts %+v", i, m, res.Energy, want)
			}
		}
	}
}

// TestEmptyAppNameTransmitsBeforeHorizon runs eTrain on cargo whose only
// app is named "": it must ride a heartbeat, not wait for the horizon
// flush.
func TestEmptyAppNameTransmitsBeforeHorizon(t *testing.T) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := fleet.SynthesizeDevice(20261017, pop, 0, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := dev.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trains = []heartbeat.TrainApp{heartbeat.QQ()}
	cfg.Beats = nil
	cfg.Packets = []workload.Packet{
		{ID: 1, App: "", ArrivedAt: 10 * time.Second, Size: 2048, Profile: profile.Weibo(30 * time.Second)},
		{ID: 2, App: "", ArrivedAt: 20 * time.Second, Size: 2048, Profile: profile.Mail(time.Minute)},
	}
	strategy, err := core.New(core.Options{Theta: 100, K: core.KInfinite})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = strategy
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForcedFlushCount != 0 || len(res.Packets) != 2 {
		t.Fatalf("forced %d of %d packets to the horizon flush, want none", res.ForcedFlushCount, len(res.Packets))
	}
	for _, p := range res.Packets {
		if p.StartedAt >= cfg.Horizon {
			t.Errorf("packet %d transmitted at %v, horizon %v", p.ID, p.StartedAt, cfg.Horizon)
		}
	}
}
