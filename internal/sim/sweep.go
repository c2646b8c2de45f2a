package sim

import (
	"fmt"
	"strings"
	"time"

	"etrain/internal/parallel"
	"etrain/internal/sched"
)

// EDPoint is one point on an energy–delay panel (the paper's E-D panel,
// Fig. 7b / Fig. 8a).
type EDPoint struct {
	// Control is the tuning-parameter value that produced the point
	// (Θ for eTrain, Ω for PerES, V for eTime).
	Control float64
	// EnergyJoules is the run's total radio energy.
	EnergyJoules float64
	// Delay is the normalized delay.
	Delay time.Duration
	// ViolationRatio is the deadline violation ratio.
	ViolationRatio float64
}

// StrategyFactory builds a fresh strategy for a given control-parameter
// value. Strategies are stateful, so sweeps construct a new one per run.
type StrategyFactory func(control float64) (sched.Strategy, error)

// PointError records one failed sweep point.
type PointError struct {
	// Control is the control value whose run failed.
	Control float64
	// Err is the failure.
	Err error
}

func (e PointError) Error() string {
	return fmt.Sprintf("control %v: %v", e.Control, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e PointError) Unwrap() error { return e.Err }

// SweepError aggregates the failed points of a sweep. One failed point
// reports its control value without killing the whole panel: the sweep
// still returns every point that succeeded, and callers decide whether a
// partial panel is usable.
type SweepError struct {
	// Failures holds one entry per failed control, in input order.
	Failures []PointError
}

func (e *SweepError) Error() string {
	parts := make([]string, len(e.Failures))
	for i, f := range e.Failures {
		parts[i] = f.Error()
	}
	return fmt.Sprintf("sweep: %d point(s) failed: %s", len(e.Failures), strings.Join(parts, "; "))
}

// Unwrap exposes the per-point errors to errors.Is/As.
func (e *SweepError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.Err
	}
	return out
}

// Sweep evaluates the configuration once per control value on the
// runner's pool and returns the E–D points of the successful runs in
// input order. When some points fail, the returned error is a *SweepError
// listing them, alongside the surviving points; the panel only comes back
// empty if every point failed.
func (r *Runner) Sweep(cfg Config, factory KeyedFactory, controls []float64) ([]EDPoint, error) {
	type slot struct {
		pt  EDPoint
		err error
	}
	results := make([]slot, len(controls))
	// Spawn bound: no point waking more goroutines than there are jobs or
	// worker slots; the leaf semaphore inside Point enforces the real
	// budget across concurrent sweeps.
	spawn := len(controls)
	if w := r.Workers(); w < spawn {
		spawn = w
	}
	_ = parallel.ForEach(parallel.NewLimit(spawn), len(controls), func(i int) error {
		pt, err := r.Point(cfg, factory, controls[i])
		results[i] = slot{pt: pt, err: err}
		return nil
	})

	points := make([]EDPoint, 0, len(controls))
	var sweepErr *SweepError
	for i, res := range results {
		if res.err != nil {
			if sweepErr == nil {
				sweepErr = &SweepError{}
			}
			sweepErr.Failures = append(sweepErr.Failures, PointError{Control: controls[i], Err: res.err})
			continue
		}
		points = append(points, res.pt)
	}
	if sweepErr != nil {
		return points, sweepErr
	}
	return points, nil
}

// calibrationTolerance is the delay slack within which calibration picks
// the cheapest point rather than the closest-delay one. Strategies whose
// delay curve flattens near the target (eTrain past its train-gap floor)
// would otherwise be charged for an arbitrary point on a steep energy
// gradient.
const calibrationTolerance = 4 * time.Second

// calibrate drives the bisection given an evaluator: it probes [lo, hi]
// assuming delay is non-decreasing in the control, then probes a few
// points past the bracket in case the delay curve flattens while energy
// keeps falling. Among evaluated points within calibrationTolerance of
// the target it returns the lowest-energy one; otherwise the
// closest-delay one. The returned point is always one the evaluator
// produced.
func calibrate(evaluate func(float64) (EDPoint, error), target time.Duration, lo, hi float64, iterations int) (EDPoint, error) {
	if iterations <= 0 {
		iterations = 12
	}

	var evaluated []EDPoint
	loPt, err := evaluate(lo)
	if err != nil {
		return EDPoint{}, err
	}
	evaluated = append(evaluated, loPt)

	hiPt, err := evaluate(hi)
	if err != nil {
		return EDPoint{}, err
	}
	evaluated = append(evaluated, hiPt)

	for i := 0; i < iterations; i++ {
		mid := (lo + hi) / 2
		pt, err := evaluate(mid)
		if err != nil {
			return EDPoint{}, err
		}
		evaluated = append(evaluated, pt)
		if pt.Delay < target {
			lo = mid
		} else {
			hi = mid
		}
	}

	// Bisection stops as soon as it brackets the target, but when the
	// delay curve flattens past it (energy still falling), cheaper
	// settings remain within tolerance at higher controls. Probe a few.
	pivot := (lo + hi) / 2
	for _, mult := range []float64{1.3, 1.7, 2.4} {
		ctrl := pivot * mult
		if ctrl <= pivot {
			break
		}
		pt, err := evaluate(ctrl)
		if err != nil {
			return EDPoint{}, err
		}
		evaluated = append(evaluated, pt)
		if absDuration(pt.Delay-target) > calibrationTolerance {
			break // delay left the tolerance band; further probes only worsen it
		}
	}

	best := evaluated[0]
	bestWithin := false
	for _, pt := range evaluated {
		within := absDuration(pt.Delay-target) <= calibrationTolerance
		switch {
		case within && !bestWithin:
			best, bestWithin = pt, true
		case within && bestWithin && pt.EnergyJoules < best.EnergyJoules:
			best = pt
		case !within && !bestWithin &&
			absDuration(pt.Delay-target) < absDuration(best.Delay-target):
			best = pt
		}
	}
	return best, nil
}

// CalibrateDelay finds, by bisection over [lo, hi], the control value
// whose run meets the target normalized delay, assuming delay is
// non-decreasing in the control (true for Θ, Ω and V); see calibrate for
// the selection rule. This mirrors the paper's Fig. 8b methodology:
// "picking the right value of Ω, V and Θ" so every strategy is compared
// at the same delay. Probes are inherently sequential (each depends on
// the last), but they hit the runner's cache, so repeated calibrations
// over one config and overlapping sweep grids never recompute a point.
func (r *Runner) CalibrateDelay(cfg Config, factory KeyedFactory, target time.Duration, lo, hi float64, iterations int) (EDPoint, error) {
	return calibrate(func(ctrl float64) (EDPoint, error) {
		return r.Point(cfg, factory, ctrl)
	}, target, lo, hi, iterations)
}

func absDuration(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
