package sim

import (
	"testing"
	"testing/quick"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/baseline"
	"etrain/internal/core"
	"etrain/internal/heartbeat"
	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/sched"
	"etrain/internal/workload"
)

const testHorizon = 7200 * time.Second

// paperConfig builds the paper's default simulation setup (§VI-A) with the
// given strategy slot left unset.
func paperConfig(t *testing.T, seed int64) Config {
	t.Helper()
	src := randx.New(seed)
	bw, err := bandwidth.Synthesize(src.Split(), testHorizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	packets, err := workload.Generate(src.Split(), workload.DefaultSpecs(), testHorizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Horizon:   testHorizon,
		Trains:    heartbeat.DefaultTrio(),
		Packets:   packets,
		Bandwidth: bw,
		Power:     radio.GalaxyS43G(),
	}
}

func mustETrain(t *testing.T, theta float64, k int) sched.Strategy {
	t.Helper()
	s, err := core.New(core.Options{Theta: theta, K: k})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runWith(t *testing.T, cfg Config, s sched.Strategy) *Result {
	t.Helper()
	cfg.Strategy = s
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidateCatchesErrors(t *testing.T) {
	good := paperConfig(t, 1)
	good.Strategy = baseline.NewImmediate()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}

	noHorizon := good
	noHorizon.Horizon = 0
	if err := noHorizon.Validate(); err == nil {
		t.Fatal("zero horizon accepted")
	}

	noBW := good
	noBW.Bandwidth = nil
	if err := noBW.Validate(); err == nil {
		t.Fatal("missing bandwidth accepted")
	}

	noStrategy := good
	noStrategy.Strategy = nil
	if err := noStrategy.Validate(); err == nil {
		t.Fatal("missing strategy accepted")
	}

	badPower := good
	badPower.Power = radio.PowerModel{}
	if err := badPower.Validate(); err == nil {
		t.Fatal("invalid power model accepted")
	}

	unsorted := good
	unsorted.Packets = []workload.Packet{
		{ArrivedAt: time.Minute, App: "a", Profile: workload.MailSpec().Profile},
		{ArrivedAt: time.Second, App: "a", Profile: workload.MailSpec().Profile},
	}
	if err := unsorted.Validate(); err == nil {
		t.Fatal("unsorted packets accepted")
	}
}

func TestAllPacketsAccountedFor(t *testing.T) {
	cfg := paperConfig(t, 2)
	for _, s := range []sched.Strategy{
		baseline.NewImmediate(),
		mustETrain(t, 0.2, core.KInfinite),
	} {
		res := runWith(t, cfg, s)
		if len(res.Packets) != len(cfg.Packets) {
			t.Fatalf("%s: %d packet stats for %d packets", s.Name(), len(res.Packets), len(cfg.Packets))
		}
		seen := make(map[int]bool)
		for _, p := range res.Packets {
			if seen[p.ID] {
				t.Fatalf("%s: packet %d transmitted twice", s.Name(), p.ID)
			}
			seen[p.ID] = true
			if p.Delay < 0 {
				t.Fatalf("%s: packet %d has negative delay %v (causality)", s.Name(), p.ID, p.Delay)
			}
		}
	}
}

func TestHeartbeatCountMatchesSchedule(t *testing.T) {
	cfg := paperConfig(t, 3)
	res := runWith(t, cfg, baseline.NewImmediate())
	want := len(heartbeat.Merge(cfg.Trains, cfg.Horizon))
	if res.HeartbeatCount != want {
		t.Fatalf("heartbeats = %d, want %d", res.HeartbeatCount, want)
	}
}

func TestTimelineSerialized(t *testing.T) {
	cfg := paperConfig(t, 4)
	res := runWith(t, cfg, mustETrain(t, 0.2, core.KInfinite))
	txs := res.Timeline.Transmissions()
	for i := 1; i < len(txs); i++ {
		if txs[i].Start < txs[i-1].End() {
			t.Fatalf("transmissions overlap at %d", i)
		}
	}
}

func TestETrainSavesEnergyVersusBaseline(t *testing.T) {
	cfg := paperConfig(t, 5)
	base := runWith(t, cfg, baseline.NewImmediate())
	et := runWith(t, cfg, mustETrain(t, 2.0, core.KInfinite))

	if et.Energy.Total() >= base.Energy.Total() {
		t.Fatalf("eTrain %.0f J >= baseline %.0f J", et.Energy.Total(), base.Energy.Total())
	}
	saving := 1 - et.Energy.Total()/base.Energy.Total()
	if saving < 0.25 {
		t.Fatalf("eTrain saving only %.1f%%, want the paper's substantial cut", saving*100)
	}
	// The price of saving is delay.
	if et.NormalizedDelay() <= base.NormalizedDelay() {
		t.Fatalf("eTrain delay %v not above baseline %v", et.NormalizedDelay(), base.NormalizedDelay())
	}
}

func TestBaselineDelayNearZero(t *testing.T) {
	cfg := paperConfig(t, 6)
	res := runWith(t, cfg, baseline.NewImmediate())
	if res.NormalizedDelay() > 3*time.Second {
		t.Fatalf("baseline delay = %v, want ~0 (immediate transmission)", res.NormalizedDelay())
	}
	if res.DeadlineViolationRatio() > 0.01 {
		t.Fatalf("baseline violates deadlines: %v", res.DeadlineViolationRatio())
	}
}

func TestThetaTradeoffMonotoneEnergy(t *testing.T) {
	cfg := paperConfig(t, 7)
	low := runWith(t, cfg, mustETrain(t, 0.0, 20))
	high := runWith(t, cfg, mustETrain(t, 2.0, 20))
	if high.Energy.Total() >= low.Energy.Total() {
		t.Fatalf("larger Θ did not save energy: %.0f J vs %.0f J", high.Energy.Total(), low.Energy.Total())
	}
	if high.NormalizedDelay() <= low.NormalizedDelay() {
		t.Fatalf("larger Θ did not increase delay: %v vs %v", high.NormalizedDelay(), low.NormalizedDelay())
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runWith(t, paperConfig(t, 8), mustETrain(t, 0.4, core.KInfinite))
	b := runWith(t, paperConfig(t, 8), mustETrain(t, 0.4, core.KInfinite))
	if a.Energy.Total() != b.Energy.Total() {
		t.Fatalf("energy differs across identical runs: %v vs %v", a.Energy.Total(), b.Energy.Total())
	}
	if a.NormalizedDelay() != b.NormalizedDelay() {
		t.Fatal("delay differs across identical runs")
	}
	if a.Timeline.Len() != b.Timeline.Len() {
		t.Fatal("timeline length differs across identical runs")
	}
}

func TestHeartbeatOnlyRun(t *testing.T) {
	cfg := paperConfig(t, 9)
	cfg.Packets = nil
	res := runWith(t, cfg, mustETrain(t, 0.2, core.KInfinite))
	if len(res.Packets) != 0 {
		t.Fatal("packets appeared from nowhere")
	}
	if res.HeartbeatCount == 0 {
		t.Fatal("no heartbeats in heartbeat-only run")
	}
	// ~86 beats in 2 h (24+26.6+30 per hour, phased): each costs roughly a
	// full tail since cycles >> tail time.
	perBeat := res.Energy.Total() / float64(res.HeartbeatCount)
	if perBeat < 8 || perBeat > 12 {
		t.Fatalf("per-heartbeat energy = %.2f J, want ~10.4 J", perBeat)
	}
}

func TestNoTrainsRun(t *testing.T) {
	cfg := paperConfig(t, 10)
	cfg.Trains = nil
	res := runWith(t, cfg, mustETrain(t, 0.2, core.KInfinite))
	if res.HeartbeatCount != 0 {
		t.Fatal("heartbeats without trains")
	}
	if len(res.Packets) != len(cfg.Packets) {
		t.Fatal("packets lost without trains")
	}
	// Without trains, packets only leave when cost crosses Θ.
	if res.NormalizedDelay() <= 0 {
		t.Fatal("expected nonzero delay without trains")
	}
}

func TestForcedFlushCountsTailPackets(t *testing.T) {
	cfg := paperConfig(t, 11)
	// A packet arriving just before the horizon with a huge deadline will
	// still be queued at the end.
	spec := workload.MailSpec()
	late := workload.Packet{
		ID: 999999, App: "mail", ArrivedAt: cfg.Horizon - time.Second,
		Size: 5120, Profile: spec.Profile,
	}
	cfg.Packets = append(cfg.Packets, late)
	res := runWith(t, cfg, mustETrain(t, 5.0, core.KInfinite))
	if res.ForcedFlushCount == 0 {
		t.Fatal("no forced flush despite late zero-cost packet")
	}
}

// TestEngineInvariantsProperty drives small random workloads through the
// engine under every strategy family and checks the invariants that must
// hold regardless of scheduling decisions.
func TestEngineInvariantsProperty(t *testing.T) {
	prop := func(seed int64, strategyPick uint8) bool {
		horizon := 20 * time.Minute
		src := randx.New(seed)
		bw, err := bandwidth.Synthesize(src.Split(), horizon, nil)
		if err != nil {
			return false
		}
		packets, err := workload.Generate(src.Split(), workload.DefaultSpecs(), horizon, nil)
		if err != nil {
			return false
		}
		var strategy sched.Strategy
		switch strategyPick % 4 {
		case 0:
			strategy = baseline.NewImmediate()
		case 1:
			strategy, err = core.New(core.Options{Theta: 2, K: core.KInfinite})
		case 2:
			strategy, err = baseline.NewPerES(baseline.DefaultPerESOptions(0.5))
		default:
			strategy, err = baseline.NewETime(baseline.ETimeOptions{V: 6})
		}
		if err != nil {
			return false
		}
		cfg := Config{
			Horizon: horizon, Trains: heartbeat.DefaultTrio(),
			Packets: packets, Bandwidth: bw, Power: radio.GalaxyS43G(),
			Strategy:  strategy,
			Estimator: bandwidth.NewEstimator(bw, src.Split(), time.Second, 0.3),
		}
		res, err := Run(cfg)
		if err != nil {
			return false
		}
		// Conservation: every packet transmitted exactly once.
		if len(res.Packets) != len(packets) {
			return false
		}
		seen := make(map[int]bool)
		for _, p := range res.Packets {
			if seen[p.ID] || p.Delay < 0 {
				return false
			}
			seen[p.ID] = true
		}
		// Serialization and ordering.
		txs := res.Timeline.Transmissions()
		for i := 1; i < len(txs); i++ {
			if txs[i].Start < txs[i-1].End() {
				return false
			}
		}
		// Energy sanity: non-negative, and tails bounded by one full tail
		// per transmission.
		maxTail := float64(res.Timeline.Len()) * cfg.Power.FullTailEnergy()
		return res.Energy.Total() >= 0 && res.Energy.Tail <= maxTail+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestAppStatsBreakdown(t *testing.T) {
	cfg := paperConfig(t, 24)
	res := runWith(t, cfg, mustETrain(t, 2.0, core.KInfinite))
	statsByApp := res.AppStats()
	if len(statsByApp) != 3 {
		t.Fatalf("got stats for %d apps, want 3", len(statsByApp))
	}
	total := 0
	for app, s := range statsByApp {
		if s.Count <= 0 || s.Bytes <= 0 {
			t.Fatalf("%s has empty stats: %+v", app, s)
		}
		total += s.Count
	}
	if total != len(res.Packets) {
		t.Fatalf("per-app counts sum to %d, want %d", total, len(res.Packets))
	}
	// Mail (zero pre-deadline cost) waits for trains; weibo leaves earlier
	// when Θ-triggered drips fire. Both must have sane averages.
	if statsByApp["mail"].AvgDelay <= 0 {
		t.Fatal("mail average delay should be positive")
	}
}

func TestDelayPercentiles(t *testing.T) {
	cfg := paperConfig(t, 23)
	res := runWith(t, cfg, mustETrain(t, 2.0, core.KInfinite))
	p50 := res.DelayPercentile(50)
	p90 := res.DelayPercentile(90)
	p99 := res.DelayPercentile(99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("percentiles not ordered: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	if p50 <= 0 {
		t.Fatal("median delay should be positive under eTrain")
	}
	empty := Result{}
	if empty.DelayPercentile(50) != 0 {
		t.Fatal("empty result percentile should be 0")
	}
}

func TestBeatsOverrideReplacesTrains(t *testing.T) {
	cfg := paperConfig(t, 21)
	cfg.Beats = []heartbeat.Beat{
		{At: 100 * time.Second, App: "solo", Size: 100},
		{At: 200 * time.Second, App: "solo", Size: 100},
	}
	res := runWith(t, cfg, mustETrain(t, 0.2, core.KInfinite))
	if res.HeartbeatCount != 2 {
		t.Fatalf("heartbeats = %d, want the 2 overridden beats", res.HeartbeatCount)
	}
}

func TestBeatsOverrideMustBeSorted(t *testing.T) {
	cfg := paperConfig(t, 22)
	cfg.Beats = []heartbeat.Beat{
		{At: 200 * time.Second, App: "a", Size: 1},
		{At: 100 * time.Second, App: "a", Size: 1},
	}
	cfg.Strategy = baseline.NewImmediate()
	if _, err := Run(cfg); err == nil {
		t.Fatal("unsorted beat override accepted")
	}
}

func TestSweepProducesOnePointPerControl(t *testing.T) {
	cfg := paperConfig(t, 12)
	factory := func(theta float64) (sched.Strategy, error) {
		return core.New(core.Options{Theta: theta, K: 20})
	}
	points, err := Sweep(cfg, factory, []float64{0, 0.5, 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	if points[2].EnergyJoules >= points[0].EnergyJoules {
		t.Fatalf("sweep not energy-monotone: %v", points)
	}
}

func TestCalibrateDelayHitsTarget(t *testing.T) {
	cfg := paperConfig(t, 13)
	factory := func(theta float64) (sched.Strategy, error) {
		return core.New(core.Options{Theta: theta, K: 20})
	}
	target := 40 * time.Second
	pt, err := CalibrateDelay(cfg, factory, target, 0, 4.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	diff := pt.Delay - target
	if diff < 0 {
		diff = -diff
	}
	if diff > 15*time.Second {
		t.Fatalf("calibrated delay %v too far from target %v", pt.Delay, target)
	}
}

func TestChannelAwareStrategiesRun(t *testing.T) {
	cfg := paperConfig(t, 14)
	cfg.Estimator = bandwidth.NewEstimator(cfg.Bandwidth, randx.New(99), time.Second, 0.3)

	peres, err := baseline.NewPerES(baseline.DefaultPerESOptions(0.5))
	if err != nil {
		t.Fatal(err)
	}
	etime, err := baseline.NewETime(baseline.ETimeOptions{V: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Strategy{peres, etime} {
		res := runWith(t, cfg, s)
		if len(res.Packets) != len(cfg.Packets) {
			t.Fatalf("%s lost packets: %d of %d", s.Name(), len(res.Packets), len(cfg.Packets))
		}
		if res.Energy.Total() <= 0 {
			t.Fatalf("%s zero energy", s.Name())
		}
	}
}

func TestComparativeOrderingMatchesPaper(t *testing.T) {
	// Fig. 8 shape, following the paper's methodology: calibrate every
	// strategy's control parameter to the same normalized delay, then
	// compare energy. Expected ordering: eTrain < eTime < PerES < baseline,
	// with PerES (deadline-aware) violating fewer deadlines than eTime.
	cfg := paperConfig(t, 15)
	cfg.Estimator = bandwidth.NewEstimator(cfg.Bandwidth, randx.New(7), time.Second, 0.3)

	// 68 s sits inside every strategy's reachable delay range on this
	// seed; the union of the 300/270/240 s train cycles has an inherent
	// mean-wait floor of ~64 s (beat clustering), so eTrain cannot be
	// calibrated much below that.
	target := 68 * time.Second

	etrainPt, err := CalibrateDelay(cfg, func(theta float64) (sched.Strategy, error) {
		return core.New(core.Options{Theta: theta, K: core.KInfinite})
	}, target, 0, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	etimePt, err := CalibrateDelay(cfg, func(v float64) (sched.Strategy, error) {
		return baseline.NewETime(baseline.ETimeOptions{V: v})
	}, target, 1, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	peresPt, err := CalibrateDelay(cfg, func(omega float64) (sched.Strategy, error) {
		return baseline.NewPerES(baseline.DefaultPerESOptions(omega))
	}, target, 0, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := runWith(t, cfg, baseline.NewImmediate())

	if !(etrainPt.EnergyJoules < etimePt.EnergyJoules &&
		etimePt.EnergyJoules < peresPt.EnergyJoules &&
		peresPt.EnergyJoules < base.Energy.Total()) {
		t.Fatalf("energy ordering at delay %v violated: etrain=%.0f etime=%.0f peres=%.0f baseline=%.0f",
			target, etrainPt.EnergyJoules, etimePt.EnergyJoules, peresPt.EnergyJoules, base.Energy.Total())
	}
	// PerES is deadline-aware; eTime is not (paper §VI-A).
	if peresPt.ViolationRatio > etimePt.ViolationRatio {
		t.Fatalf("PerES violation %.3f above eTime's %.3f despite deadline-awareness",
			peresPt.ViolationRatio, etimePt.ViolationRatio)
	}
}
