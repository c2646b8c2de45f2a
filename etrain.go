// Package etrain is a reproduction of "eTrain: Making Wasted Energy Useful
// by Utilizing Heartbeats for Mobile Data Transmissions" (Zhang et al.,
// ICDCS 2015).
//
// IM apps keep an always-on connection alive with periodic heartbeats; on
// 3G every heartbeat drags the radio through a ~17.5-second high-power tail
// that dominates standby energy. eTrain treats heartbeats as trains and
// delay-tolerant app data (mail, SNS posts, cloud sync) as cargo: it defers
// and aggregates cargo so it rides the tails heartbeats pay for anyway,
// scheduled online by a Lyapunov drift-minimizing greedy algorithm
// parameterized by a cost bound Θ and a batch limit k.
//
// The package offers two entry points:
//
//   - Simulate runs the paper's trace-driven simulation (§VI-A..C): a
//     heartbeat schedule, Poisson cargo arrivals, a bandwidth trace and a
//     scheduling strategy, returning energy/delay metrics.
//   - NewSystem builds the live system of §V on a simulated Android stack:
//     train apps send real (virtual-time) heartbeats through an
//     AlarmManager, a hook notifies eTrain's monitor, cargo apps submit
//     requests over the broadcast bus and transmit when instructed.
//
// Every run is deterministic given its seed.
package etrain

import (
	"fmt"
	"time"

	"etrain/internal/android"
	"etrain/internal/bandwidth"
	"etrain/internal/baseline"
	"etrain/internal/core"
	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/sched"
	"etrain/internal/sim"
	"etrain/internal/workload"
)

// Re-exported domain types. The aliases keep the public API small while the
// implementation lives in focused internal packages.
type (
	// Profile maps a packet's delay to its cost (paper Fig. 6).
	Profile = profile.Profile
	// TrainApp models one heartbeat-sending application.
	TrainApp = heartbeat.TrainApp
	// Beat is one heartbeat instance of a merged train schedule.
	Beat = heartbeat.Beat
	// PowerModel holds the radio's power-state parameters.
	PowerModel = radio.PowerModel
	// Energy is a radio energy breakdown in joules.
	Energy = radio.Energy
	// Packet is one application-layer data unit.
	Packet = workload.Packet
	// CargoSpec describes a cargo app's packet population.
	CargoSpec = workload.CargoSpec
	// BandwidthTrace is a 1 Hz uplink bandwidth trace.
	BandwidthTrace = bandwidth.Trace
	// DeliveredPacket records one cargo transmission as seen by its app.
	DeliveredPacket = android.DeliveredPacket
)

// KInfinite requests an unbounded heartbeat batch (the paper's k ← ∞).
const KInfinite = core.KInfinite

// Profile constructors (paper Fig. 6).
var (
	// MailProfile is f1: free until the deadline, then linear.
	MailProfile = profile.Mail
	// WeiboProfile is f2: linear until the deadline, then a plateau of 2.
	WeiboProfile = profile.Weibo
	// CloudProfile is f3: linear until the deadline, then 3x steeper.
	CloudProfile = profile.Cloud
)

// Train app models measured in the paper (Table 1).
var (
	// QQ sends 378 B heartbeats every 300 s.
	QQ = heartbeat.QQ
	// WeChat sends 74 B heartbeats every 270 s.
	WeChat = heartbeat.WeChat
	// WhatsApp sends 66 B heartbeats every 240 s.
	WhatsApp = heartbeat.WhatsApp
	// RenRen sends heartbeats every 300 s.
	RenRen = heartbeat.RenRen
	// NetEase starts at 60 s and doubles after every 6 beats up to 480 s.
	NetEase = heartbeat.NetEase
	// APNS is iOS's shared 1800 s push-notification heartbeat.
	APNS = heartbeat.APNS
	// DefaultTrains is the QQ/WeChat/WhatsApp trio of the paper's
	// simulations.
	DefaultTrains = heartbeat.DefaultTrio
)

// GalaxyS43G returns the paper's measured Samsung Galaxy S4 radio
// parameters in a TD-SCDMA network.
var GalaxyS43G = radio.GalaxyS43G

// DefaultCargo returns the paper's three cargo apps (mail/weibo/cloud) at
// total arrival rate λ = 0.08 packets/second.
var DefaultCargo = workload.DefaultSpecs

// CargoForLambda scales the default cargo specs to a total arrival rate of
// lambda, preserving the paper's 5:2:10 inter-arrival ratio.
var CargoForLambda = workload.SpecsForLambda

// StrategyKind selects a scheduling strategy.
type StrategyKind int

// Available strategies.
const (
	// StrategyETrain is the paper's contribution (Algorithm 1).
	StrategyETrain StrategyKind = iota + 1
	// StrategyBaseline transmits every packet on arrival.
	StrategyBaseline
	// StrategyPerES is the deadline-aware channel-dependent comparator.
	StrategyPerES
	// StrategyETime is the 60 s-slotted channel-dependent comparator.
	StrategyETime
	// StrategyETrainPredictive is eTrain driven by cycle prediction
	// instead of live hook notifications after a warmup (the §V-2
	// ablation).
	StrategyETrainPredictive
)

// String returns the strategy name.
func (k StrategyKind) String() string {
	switch k {
	case StrategyETrain:
		return "etrain"
	case StrategyBaseline:
		return "baseline"
	case StrategyPerES:
		return "peres"
	case StrategyETime:
		return "etime"
	case StrategyETrainPredictive:
		return "etrain-predictive"
	default:
		return fmt.Sprintf("etrain.StrategyKind(%d)", int(k))
	}
}

// StrategyConfig parameterizes a strategy.
type StrategyConfig struct {
	// Kind selects the strategy; StrategyETrain if zero.
	Kind StrategyKind
	// Theta is eTrain's cost bound Θ.
	Theta float64
	// K is eTrain's heartbeat batch limit (KInfinite allowed); defaults
	// to KInfinite.
	K int
	// Omega is PerES' performance cost bound.
	Omega float64
	// V is eTime's energy/delay tradeoff parameter.
	V float64
	// WarmupBeats is how many live heartbeat observations per app the
	// predictive variant consumes before extrapolating; defaults to 5.
	WarmupBeats int
}

func (c StrategyConfig) build() (sched.Strategy, error) {
	kind := c.Kind
	if kind == 0 {
		kind = StrategyETrain
	}
	switch kind {
	case StrategyETrain:
		k := c.K
		if k == 0 {
			k = KInfinite
		}
		return core.New(core.Options{Theta: c.Theta, K: k})
	case StrategyBaseline:
		return baseline.NewImmediate(), nil
	case StrategyPerES:
		return baseline.NewPerES(c.Omega)
	case StrategyETime:
		return baseline.NewETime(c.V)
	case StrategyETrainPredictive:
		k := c.K
		if k == 0 {
			k = KInfinite
		}
		warmup := c.WarmupBeats
		if warmup == 0 {
			warmup = 5
		}
		return core.NewPredictive(core.Options{Theta: c.Theta, K: k}, warmup)
	default:
		return nil, fmt.Errorf("etrain: unknown strategy kind %d", int(kind))
	}
}

// SimConfig describes one trace-driven simulation.
type SimConfig struct {
	// Seed drives all randomness; equal seeds reproduce exactly.
	Seed int64
	// Horizon is the simulated span; the paper's 7200 s if zero.
	Horizon time.Duration
	// Trains are the heartbeat apps; DefaultTrains() if nil.
	Trains []TrainApp
	// Cargo describes the packet workload; DefaultCargo() if nil.
	Cargo []CargoSpec
	// Strategy selects and parameterizes the scheduler.
	Strategy StrategyConfig
	// Power is the radio model; GalaxyS43G() if zero.
	Power PowerModel
	// Bandwidth overrides the synthetic trace when non-nil.
	Bandwidth *BandwidthTrace
}

// AppStat summarizes one cargo app's outcomes within a run.
type AppStat = sim.AppStat

// SimResult aggregates a simulation run.
type SimResult struct {
	// Strategy names the scheduler that produced the result.
	Strategy string
	// Energy is the radio energy breakdown (joules above IDLE).
	Energy Energy
	// NormalizedDelay is the average delay per data packet.
	NormalizedDelay time.Duration
	// DelayP50, DelayP90 and DelayP99 are per-packet delay percentiles.
	DelayP50, DelayP90, DelayP99 time.Duration
	// DeadlineViolationRatio is the fraction of packets past deadline.
	DeadlineViolationRatio float64
	// Packets is the number of data packets transmitted.
	Packets int
	// Heartbeats is the number of heartbeat transmissions.
	Heartbeats int
	// PerApp breaks the outcomes down by cargo app.
	PerApp map[string]AppStat
}

// Simulate runs the paper's trace-driven simulation.
func Simulate(cfg SimConfig) (*SimResult, error) {
	simCfg, err := buildSimInputs(cfg)
	if err != nil {
		return nil, err
	}
	strategy, err := cfg.Strategy.build()
	if err != nil {
		return nil, err
	}
	simCfg.Strategy = strategy
	res, err := sim.Run(simCfg)
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Strategy:               res.Strategy,
		Energy:                 res.Energy,
		NormalizedDelay:        res.NormalizedDelay(),
		DelayP50:               res.DelayPercentile(50),
		DelayP90:               res.DelayPercentile(90),
		DelayP99:               res.DelayPercentile(99),
		DeadlineViolationRatio: res.DeadlineViolationRatio(),
		Packets:                len(res.Packets),
		Heartbeats:             res.HeartbeatCount,
		PerApp:                 res.AppStats(),
	}, nil
}

// SynthesizeBandwidth generates the synthetic 3G uplink trace used when
// SimConfig.Bandwidth is nil: a regime-switching Gauss–Markov process
// emulating the paper's bus-and-campus collection run.
func SynthesizeBandwidth(seed int64, duration time.Duration) (*BandwidthTrace, error) {
	return bandwidth.Synthesize(randx.New(seed), duration, nil)
}

// EDPoint is one point on an energy–delay panel: the control value that
// produced it plus the run's energy, normalized delay and deadline
// violation ratio.
type EDPoint = sim.EDPoint

// buildSimInputs assembles the internal simulation config from a SimConfig
// minus the strategy, which sweeps supply per control value.
func buildSimInputs(cfg SimConfig) (sim.Config, error) {
	src := randx.New(cfg.Seed)
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = 7200 * time.Second
	}
	trains := cfg.Trains
	if trains == nil {
		trains = DefaultTrains()
	}
	cargo := cfg.Cargo
	if cargo == nil {
		cargo = DefaultCargo()
	}
	power := cfg.Power
	if power == (PowerModel{}) {
		power = GalaxyS43G()
	}
	bw := cfg.Bandwidth
	if bw == nil {
		var err error
		bw, err = bandwidth.Synthesize(src.Split(), horizon, nil)
		if err != nil {
			return sim.Config{}, err
		}
	}
	packets, err := workload.Generate(src.Split(), cargo, horizon, nil)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Horizon:   horizon,
		Trains:    trains,
		Packets:   packets,
		Bandwidth: bw,
		Power:     power,
		Estimator: bandwidth.NewEstimator(bw, src.Split(), time.Second, 0.3),
		Seed:      cfg.Seed,
	}, nil
}

// sweepFactory names the control parameter of cfg.Strategy's kind and
// returns the keyed factory sweeping it: Θ for eTrain (K preserved), Ω for
// PerES, V for eTime. The baseline has no control and cannot be swept.
func sweepFactory(cfg StrategyConfig) (sim.KeyedFactory, error) {
	kind := cfg.Kind
	if kind == 0 {
		kind = StrategyETrain
	}
	switch kind {
	case StrategyETrain, StrategyETrainPredictive:
		return sim.Keyed(fmt.Sprintf("%s/k=%d", kind, cfg.K), func(theta float64) (sched.Strategy, error) {
			c := cfg
			c.Kind = kind
			c.Theta = theta
			return c.build()
		}), nil
	case StrategyPerES:
		return sim.Keyed("peres", func(omega float64) (sched.Strategy, error) {
			c := cfg
			c.Omega = omega
			return c.build()
		}), nil
	case StrategyETime:
		return sim.Keyed("etime", func(v float64) (sched.Strategy, error) {
			c := cfg
			c.V = v
			return c.build()
		}), nil
	default:
		return sim.KeyedFactory{}, fmt.Errorf("etrain: strategy %s has no control parameter to sweep", kind)
	}
}

// Sweep runs the simulation once per control value of the configured
// strategy's tuning parameter (Θ, Ω or V) and returns the E–D points in
// input order. Workers bounds how many runs execute concurrently: 1 runs
// them sequentially, n > 1 on n workers, and 0 or negative one per CPU.
// Results are bit-identical at every setting because each run's
// randomness is derived from (seed, strategy, control), never from
// execution order. Failed points are reported through a *sim.SweepError
// alongside the surviving points.
func Sweep(cfg SimConfig, controls []float64, workers int) ([]EDPoint, error) {
	simCfg, err := buildSimInputs(cfg)
	if err != nil {
		return nil, err
	}
	factory, err := sweepFactory(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	if workers == 0 {
		workers = -1 // the exported default is one worker per CPU
	}
	return sim.NewRunner(workers).Sweep(simCfg, factory, controls)
}
