package sim

import (
	"fmt"
	"math"

	"etrain/internal/parallel"
	"etrain/internal/randx"
)

// KeyedFactory names a StrategyFactory for the runner. The key identifies
// the strategy family together with its fixed parameters (e.g.
// "etrain-k20", "peres") and is mixed into every run's derived seed, so
// factories that build different strategies must carry different keys.
type KeyedFactory struct {
	// Key names the strategy family; see the type comment.
	Key string
	// New builds a fresh strategy for one control value.
	New StrategyFactory
}

// Keyed pairs a strategy factory with its seed key.
func Keyed(key string, f StrategyFactory) KeyedFactory {
	return KeyedFactory{Key: key, New: f}
}

// Runner executes independent simulation runs — sweep points, calibration
// probes — across a bounded worker pool.
//
// Determinism contract: a run's result is a pure function of
// (Config, strategy key, control). The runner derives each run's estimator
// noise stream from randx.Derive(cfg.Seed, hash(key), bits(control)), so
// results never depend on worker count, scheduling order, or how many runs
// executed before — parallel output is bit-identical to sequential output.
//
// A Runner is safe for concurrent use; all methods may be called from
// multiple goroutines and the worker budget bounds the total number of
// simulations in flight across all of them.
type Runner struct {
	limit parallel.Limit
}

// NewRunner returns a runner with the given worker budget: n > 0 bounds
// the pool at n concurrent simulations, anything else means one per CPU
// (GOMAXPROCS). NewRunner(1) is the sequential runner.
func NewRunner(workers int) *Runner {
	return &Runner{limit: parallel.NewLimit(workers)}
}

// Workers returns the runner's worker budget.
func (r *Runner) Workers() int { return r.limit.Cap() }

// Point evaluates one (config, strategy, control) triple: one simulation
// run on the pool. The strategy field of cfg is ignored; the factory
// provides it.
func (r *Runner) Point(cfg Config, factory KeyedFactory, control float64) (EDPoint, error) {
	strategy, err := factory.New(control)
	if err != nil {
		return EDPoint{}, fmt.Errorf("control %v: %w", control, err)
	}
	cfg.Strategy = strategy
	if cfg.Estimator != nil {
		// Reseed the channel-noise stream from the run's identity. This is
		// the determinism keystone: the estimator handed to Run no longer
		// shares state with any other run.
		runSeed := randx.Derive(cfg.Seed, randx.DeriveString(factory.Key), math.Float64bits(control))
		cfg.Estimator = cfg.Estimator.Reseeded(randx.New(runSeed))
	}

	// The limit is the leaf-level semaphore bounding simulations in
	// flight; Point never blocks on anything else while holding a slot,
	// so nested fan-outs cannot deadlock it.
	r.limit.Acquire()
	res, err := Run(cfg)
	r.limit.Release()
	if err != nil {
		return EDPoint{}, fmt.Errorf("control %v: %w", control, err)
	}
	return EDPoint{
		Control:        control,
		EnergyJoules:   res.Energy.Total(),
		Delay:          res.NormalizedDelay(),
		ViolationRatio: res.DeadlineViolationRatio(),
	}, nil
}
