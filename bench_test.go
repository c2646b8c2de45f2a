package etrain_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates the experiment through internal/experiments (the same runners
// cmd/etrain-experiments prints) and reports its headline quantity as a
// custom metric, so `go test -bench=.` doubles as the reproduction harness.

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"etrain"
	"etrain/internal/experiments"
)

const benchSeed = 5

// runExperiment executes one registered experiment per iteration and
// returns the final table for metric extraction.
func runExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	entry, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err = entry.Run(experiments.Options{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

func cell(b *testing.B, tbl *experiments.Table, row, col int) float64 {
	b.Helper()
	if row < 0 {
		row += len(tbl.Rows)
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(tbl.Rows[row][col], "%"), 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q: %v", row, col, tbl.Rows[row][col], err)
	}
	return v
}

// BenchmarkFig1aStandbyEnergy regenerates the 4-hour standby measurement:
// total energy and heartbeat share for 0-3 IM apps.
func BenchmarkFig1aStandbyEnergy(b *testing.B) {
	tbl := runExperiment(b, "fig1a")
	b.ReportMetric(cell(b, tbl, -1, 4), "J_total_3apps")
}

// BenchmarkFig1bHeartbeatTimeline regenerates the merged heartbeat stream
// of the three IM apps over one hour.
func BenchmarkFig1bHeartbeatTimeline(b *testing.B) {
	tbl := runExperiment(b, "fig1b")
	b.ReportMetric(float64(len(tbl.Rows)), "beats_per_hour")
}

// BenchmarkTable1CycleDetection regenerates the heartbeat-cycle table via
// the online detector.
func BenchmarkTable1CycleDetection(b *testing.B) {
	tbl := runExperiment(b, "table1")
	b.ReportMetric(float64(len(tbl.Rows)), "apps_detected")
}

// BenchmarkFig2ToyPiggyback regenerates the motivating 5-mail toy example.
func BenchmarkFig2ToyPiggyback(b *testing.B) {
	tbl := runExperiment(b, "fig2")
	saving := 1 - cell(b, tbl, 1, 4)/cell(b, tbl, 0, 4)
	b.ReportMetric(saving*100, "saving_%")
}

// BenchmarkFig3AdaptiveCycles regenerates NetEase's doubling schedule and
// RenRen's constant cycle.
func BenchmarkFig3AdaptiveCycles(b *testing.B) {
	tbl := runExperiment(b, "fig3")
	b.ReportMetric(float64(len(tbl.Rows)), "beats")
}

// BenchmarkFig4PowerStates regenerates the power-state walk of a single
// transmission.
func BenchmarkFig4PowerStates(b *testing.B) {
	tbl := runExperiment(b, "fig4")
	b.ReportMetric(float64(len(tbl.Rows)), "state_transitions")
}

// BenchmarkFig6Profiles regenerates the three delay-cost profiles.
func BenchmarkFig6Profiles(b *testing.B) {
	tbl := runExperiment(b, "fig6")
	b.ReportMetric(float64(len(tbl.Rows)), "sample_points")
}

// BenchmarkFig7aThetaSweep regenerates the Θ sweep (k=20, λ=0.08).
func BenchmarkFig7aThetaSweep(b *testing.B) {
	tbl := runExperiment(b, "fig7a")
	reduction := 1 - cell(b, tbl, -1, 1)/cell(b, tbl, 0, 1)
	b.ReportMetric(reduction*100, "energy_reduction_%")
}

// BenchmarkFig7bKPanel regenerates the E-D panel over k in {2,4,8,16}.
func BenchmarkFig7bKPanel(b *testing.B) {
	tbl := runExperiment(b, "fig7b")
	b.ReportMetric(float64(len(tbl.Rows)), "ed_points")
}

// BenchmarkFig8aEDPanel regenerates the comparative E-D panel at λ=0.08.
func BenchmarkFig8aEDPanel(b *testing.B) {
	tbl := runExperiment(b, "fig8a")
	b.ReportMetric(cell(b, tbl, -1, 2), "J_baseline")
}

// BenchmarkFig8bLambdaSweep regenerates the λ sweep at matched delay.
func BenchmarkFig8bLambdaSweep(b *testing.B) {
	tbl := runExperiment(b, "fig8b")
	// eTrain's saving vs baseline at λ=0.08 (middle row).
	b.ReportMetric(cell(b, tbl, 2, 5), "J_saved_lambda0.08")
}

// BenchmarkFig10aTrainCount regenerates the train-count controlled
// experiment on the Android stack.
func BenchmarkFig10aTrainCount(b *testing.B) {
	tbl := runExperiment(b, "fig10a")
	b.ReportMetric(cell(b, tbl, -1, 3), "J_total_3trains")
}

// BenchmarkFig10bThetaControlled regenerates the controlled Θ sweep.
func BenchmarkFig10bThetaControlled(b *testing.B) {
	tbl := runExperiment(b, "fig10b")
	reduction := 1 - cell(b, tbl, -1, 1)/cell(b, tbl, 0, 1)
	b.ReportMetric(reduction*100, "energy_reduction_%")
}

// BenchmarkFig10cDeadlineSweep regenerates the shared-deadline sweep.
func BenchmarkFig10cDeadlineSweep(b *testing.B) {
	tbl := runExperiment(b, "fig10c")
	reduction := 1 - cell(b, tbl, -1, 1)/cell(b, tbl, 0, 1)
	b.ReportMetric(reduction*100, "energy_reduction_%")
}

// BenchmarkFig11UserActiveness regenerates the user-activeness replay.
func BenchmarkFig11UserActiveness(b *testing.B) {
	tbl := runExperiment(b, "fig11")
	b.ReportMetric(cell(b, tbl, 0, 4), "J_saved_active")
}

// Ablation benches: the design-choice studies DESIGN.md calls out.

// BenchmarkAblOfflineGap regenerates the online-vs-offline optimality gap.
func BenchmarkAblOfflineGap(b *testing.B) {
	tbl := runExperiment(b, "abl-offline-gap")
	b.ReportMetric(float64(len(tbl.Rows)), "instances")
}

// BenchmarkAblFastDormancy regenerates the fast-dormancy tradeoff study.
func BenchmarkAblFastDormancy(b *testing.B) {
	tbl := runExperiment(b, "abl-fast-dormancy")
	b.ReportMetric(cell(b, tbl, 1, 1), "J_fastdormancy")
}

// BenchmarkAblGreedyPolicy regenerates the selection-rule ablation.
func BenchmarkAblGreedyPolicy(b *testing.B) {
	tbl := runExperiment(b, "abl-greedy-policy")
	b.ReportMetric(cell(b, tbl, 0, 1), "J_eq9")
}

// BenchmarkAblChannelOracle regenerates the channel-obliviousness study.
func BenchmarkAblChannelOracle(b *testing.B) {
	tbl := runExperiment(b, "abl-channel-oracle")
	b.ReportMetric(cell(b, tbl, 0, 1), "J_oblivious")
}

// BenchmarkAblPredictiveMonitor regenerates the hook-vs-prediction study.
func BenchmarkAblPredictiveMonitor(b *testing.B) {
	tbl := runExperiment(b, "abl-predictive-monitor")
	b.ReportMetric(cell(b, tbl, -1, 2), "J_predicted_15s_jitter")
}

// BenchmarkAblRadioTech regenerates the radio-technology study.
func BenchmarkAblRadioTech(b *testing.B) {
	tbl := runExperiment(b, "abl-radio-tech")
	b.ReportMetric(cell(b, tbl, 1, 4), "J_saved_lte")
}

// BenchmarkSimulateETrain measures one full 2-hour eTrain simulation — the
// engine's end-to-end throughput.
func BenchmarkSimulateETrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := etrain.Simulate(etrain.SimConfig{
			Seed:     benchSeed,
			Strategy: etrain.StrategyConfig{Kind: etrain.StrategyETrain, Theta: 2},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Energy.Total(), "J")
	}
}

// BenchmarkSimulateBaseline measures the baseline run for comparison.
func BenchmarkSimulateBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := etrain.Simulate(etrain.SimConfig{
			Seed:     benchSeed,
			Strategy: etrain.StrategyConfig{Kind: etrain.StrategyBaseline},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Energy.Total(), "J")
	}
}

// BenchmarkLiveSystemHour measures one virtual hour of the full Android
// stack (trains + service + cargo).
func BenchmarkLiveSystemHour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys, err := etrain.NewSystem(etrain.SystemConfig{Seed: benchSeed, Theta: 2})
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range etrain.DefaultTrains() {
			if err := sys.AddTrain(tr); err != nil {
				b.Fatal(err)
			}
		}
		weibo, err := sys.RegisterCargo("weibo", etrain.WeiboProfile(90*time.Second))
		if err != nil {
			b.Fatal(err)
		}
		for at := time.Duration(0); at < time.Hour; at += 30 * time.Second {
			weibo.ScheduleSubmit(at, 2048)
		}
		sys.Run(time.Hour)
	}
}
