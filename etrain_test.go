package etrain

import (
	"testing"
	"time"
)

func TestSimulateDefaultsETrainBeatsBaseline(t *testing.T) {
	et, err := Simulate(SimConfig{Seed: 1, Strategy: StrategyConfig{Kind: StrategyETrain, Theta: 2}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Simulate(SimConfig{Seed: 1, Strategy: StrategyConfig{Kind: StrategyBaseline}})
	if err != nil {
		t.Fatal(err)
	}
	if et.Energy.Total() >= base.Energy.Total() {
		t.Fatalf("eTrain %.0f J >= baseline %.0f J", et.Energy.Total(), base.Energy.Total())
	}
	if et.Packets != base.Packets {
		t.Fatalf("packet counts differ: %d vs %d", et.Packets, base.Packets)
	}
	if et.Strategy != "etrain" || base.Strategy != "baseline" {
		t.Fatal("strategy names wrong")
	}
	if et.Heartbeats == 0 {
		t.Fatal("no heartbeats simulated")
	}
	if !(et.DelayP50 <= et.DelayP90 && et.DelayP90 <= et.DelayP99) {
		t.Fatalf("percentiles unordered: %v %v %v", et.DelayP50, et.DelayP90, et.DelayP99)
	}
	if len(et.PerApp) != 3 {
		t.Fatalf("PerApp has %d entries, want 3", len(et.PerApp))
	}
	perAppTotal := 0
	for _, s := range et.PerApp {
		perAppTotal += s.Count
	}
	if perAppTotal != et.Packets {
		t.Fatalf("per-app counts %d != total %d", perAppTotal, et.Packets)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := SimConfig{Seed: 7, Strategy: StrategyConfig{Theta: 1}}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Energy.Total() != b.Energy.Total() || a.NormalizedDelay != b.NormalizedDelay {
		t.Fatal("identical configs produced different results")
	}
}

func TestSimulateAllStrategies(t *testing.T) {
	configs := []StrategyConfig{
		{Kind: StrategyETrain, Theta: 1, K: 20},
		{Kind: StrategyBaseline},
		{Kind: StrategyPerES, Omega: 0.5},
		{Kind: StrategyETime, V: 8},
		{Kind: StrategyETrainPredictive, Theta: 1},
	}
	for _, sc := range configs {
		res, err := Simulate(SimConfig{Seed: 3, Horizon: time.Hour, Strategy: sc})
		if err != nil {
			t.Fatalf("%v: %v", sc.Kind, err)
		}
		if res.Energy.Total() <= 0 {
			t.Fatalf("%v: zero energy", sc.Kind)
		}
	}
}

func TestSimulateCustomLambda(t *testing.T) {
	cargo, err := CargoForLambda(0.04)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := Simulate(SimConfig{Seed: 5, Cargo: cargo, Strategy: StrategyConfig{Kind: StrategyBaseline}})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Simulate(SimConfig{Seed: 5, Strategy: StrategyConfig{Kind: StrategyBaseline}})
	if err != nil {
		t.Fatal(err)
	}
	if lo.Packets >= hi.Packets {
		t.Fatalf("λ=0.04 produced %d packets, λ=0.08 produced %d", lo.Packets, hi.Packets)
	}
}

func TestSimulateRejectsUnknownStrategy(t *testing.T) {
	if _, err := Simulate(SimConfig{Strategy: StrategyConfig{Kind: StrategyKind(99)}}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestStrategyKindString(t *testing.T) {
	tests := []struct {
		k    StrategyKind
		want string
	}{
		{StrategyETrain, "etrain"},
		{StrategyBaseline, "baseline"},
		{StrategyPerES, "peres"},
		{StrategyETime, "etime"},
		{StrategyETrainPredictive, "etrain-predictive"},
		{StrategyKind(42), "etrain.StrategyKind(42)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Fatalf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 11, Theta: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range DefaultTrains() {
		if err := sys.AddTrain(tr); err != nil {
			t.Fatal(err)
		}
	}
	mail, err := sys.RegisterCargo("mail", MailProfile(3*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	weibo, err := sys.RegisterCargo("weibo", WeiboProfile(90*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	for at := 30 * time.Second; at < time.Hour; at += 90 * time.Second {
		weibo.ScheduleSubmit(at, 2048)
	}
	mail.ScheduleSubmit(5*time.Minute, 5120)

	sys.Run(time.Hour)
	if sys.Now() != time.Hour {
		t.Fatalf("Now = %v, want 1h", sys.Now())
	}
	if sys.HeartbeatsObserved() == 0 {
		t.Fatal("monitor saw no heartbeats")
	}
	cycles := sys.DetectedCycles()
	if cycles["wechat"] != 270*time.Second {
		t.Fatalf("detected cycles = %v", cycles)
	}
	if _, ok := sys.PredictNextHeartbeat("qq"); !ok {
		t.Fatal("no prediction for qq")
	}
	delivered := sys.Delivered()
	if len(delivered)+sys.QueuedPackets() != 41 {
		t.Fatalf("delivered %d + queued %d != submitted 41", len(delivered), sys.QueuedPackets())
	}
	if sys.EnergyBreakdown(time.Hour).Total() <= 0 {
		t.Fatal("no energy accounted")
	}
}

func TestSystemRejectsBadCargo(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Seed: 1, Theta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RegisterCargo("", WeiboProfile(time.Minute)); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := sys.RegisterCargo("x", nil); err == nil {
		t.Fatal("nil profile accepted")
	}
}

func TestMergedSchedule(t *testing.T) {
	beats := MergedSchedule(DefaultTrains(), 30*time.Minute)
	if len(beats) < 15 {
		t.Fatalf("only %d beats in 30 min", len(beats))
	}
	for i := 1; i < len(beats); i++ {
		if beats[i].At < beats[i-1].At {
			t.Fatal("schedule out of order")
		}
	}
}

func TestPublicCaptureAPI(t *testing.T) {
	var packets []CapturedPacket
	for _, b := range MergedSchedule([]TrainApp{WeChat()}, 2*time.Hour) {
		packets = append(packets, CapturedPacket{At: b.At, Size: b.Size})
	}
	flows := HeartbeatFlows(ClassifyCapture(packets, CaptureOptions{}))
	if len(flows) != 1 || flows[0].Cycle != 270*time.Second {
		t.Fatalf("capture API did not recover WeChat's cycle: %+v", flows)
	}
}

func TestPublicBatteryAPI(t *testing.T) {
	b := GalaxyS4Battery()
	if b.CapacityJoules() <= 0 {
		t.Fatal("battery capacity not positive")
	}
	if got := b.DrainFraction(b.CapacityJoules() / 2); got < 0.49 || got > 0.51 {
		t.Fatalf("half-capacity drain = %v", got)
	}
}

func TestPublicRadioModels(t *testing.T) {
	if LTERadio().FullTailEnergy() <= GalaxyS43G().FullTailEnergy() {
		t.Fatal("LTE tail should exceed 3G's")
	}
	if WiFiRadio().FullTailEnergy() >= GalaxyS43G().FullTailEnergy() {
		t.Fatal("WiFi tail should be far below 3G's")
	}
}

func TestSynthesizeBandwidth(t *testing.T) {
	bw, err := SynthesizeBandwidth(9, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if bw.Len() != 600 {
		t.Fatalf("trace length = %d, want 600", bw.Len())
	}
}
