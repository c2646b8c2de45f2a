package experiments

import (
	"fmt"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/heartbeat"
	"etrain/internal/parallel"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/sim"
	"etrain/internal/workload"
)

// constantTrace returns a flat bandwidth trace (bytes/second).
func constantTrace(bytesPerSecond float64, duration time.Duration) (*bandwidth.Trace, error) {
	return bandwidth.Constant(bytesPerSecond, duration)
}

// perfectEstimator returns a zero-lag, zero-noise channel estimator over
// the config's trace — the oracle the paper's future work would need.
func perfectEstimator(cfg sim.Config) *bandwidth.Estimator {
	return bandwidth.NewEstimator(cfg.Bandwidth, randx.New(0), 0, 0)
}

// defaultProfileTriple returns the f1/f2/f3 profiles sharing one deadline,
// in mail/weibo/cloud order.
func defaultProfileTriple(deadline time.Duration) []profile.Profile {
	return []profile.Profile{
		profile.Mail(deadline),
		profile.Weibo(deadline),
		profile.Cloud(deadline),
	}
}

// Options configures an experiment run.
type Options struct {
	// Seed drives all randomness; equal seeds reproduce exactly,
	// regardless of Workers.
	Seed int64
	// Horizon overrides the experiment's default simulated span.
	Horizon time.Duration
	// Workers bounds how many simulation runs execute concurrently:
	// 1 (or 0) runs sequentially, n > 1 fans runs across n workers, and
	// negative values mean one worker per CPU. Results are bit-identical
	// at every setting.
	Workers int
	// Runner, when non-nil, executes this experiment's sweeps and
	// calibrations; sharing one Runner across experiments shares its
	// worker budget and its result cache (overlapping grids are computed
	// once). When nil, each experiment builds a private runner from
	// Workers.
	Runner *sim.Runner
}

func (o Options) horizonOr(def time.Duration) time.Duration {
	if o.Horizon > 0 {
		return o.Horizon
	}
	return def
}

// workersOr1 resolves Options.Workers with sequential (not GOMAXPROCS) as
// the zero default, so plain Options{} keeps the historical behavior.
func (o Options) workersOr1() int {
	switch {
	case o.Workers == 0:
		return 1
	case o.Workers < 0:
		return parallel.Workers(0)
	default:
		return o.Workers
	}
}

// runner returns the experiment's executor: the shared one when set, a
// private one sized by Workers otherwise.
func (o Options) runner() *sim.Runner {
	if o.Runner != nil {
		return o.Runner
	}
	return sim.NewRunner(o.workersOr1())
}

// limit returns a fan-out pool for experiment-level parallelism (λ rows,
// per-user replays). It is distinct from the runner's leaf semaphore:
// parallel.Limit is not reentrant, so each layer gets its own pool.
func (o Options) limit() parallel.Limit {
	return parallel.NewLimit(o.workersOr1())
}

// paperHorizon is the 2-hour span of the paper's simulations (the length of
// its bandwidth trace).
const paperHorizon = 7200 * time.Second

// estimatorNoise is the relative error of the channel estimate fed to
// PerES/eTime; see DESIGN.md.
const estimatorNoise = 0.3

// buildSimConfig assembles the paper's default simulation (§VI-A): the
// QQ/WeChat/WhatsApp trio, cargo at the given λ, a synthetic 2-hour
// bandwidth trace and the Galaxy S4 radio. The strategy is left unset.
func buildSimConfig(opts Options, lambda float64) (sim.Config, error) {
	src := randx.New(opts.Seed)
	horizon := opts.horizonOr(paperHorizon)
	bw, err := bandwidth.Synthesize(src.Split(), horizon, nil)
	if err != nil {
		return sim.Config{}, err
	}
	specs, err := workload.SpecsForLambda(lambda)
	if err != nil {
		return sim.Config{}, err
	}
	packets, err := workload.Generate(src.Split(), specs, horizon, nil)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Horizon:   horizon,
		Trains:    heartbeat.DefaultTrio(),
		Packets:   packets,
		Bandwidth: bw,
		Power:     radio.GalaxyS43G(),
		Seed:      opts.Seed,
		// The key names everything above: trace, workload, power and span
		// are all pure functions of (seed, horizon, lambda).
		CacheKey: fmt.Sprintf("default-sim/seed=%d/horizon=%s/lambda=%g", opts.Seed, horizon, lambda),
	}
	cfg.Estimator = bandwidth.NewEstimator(bw, src.Split(), time.Second, estimatorNoise)
	return cfg, nil
}
