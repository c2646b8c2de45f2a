package experiments

import (
	"errors"
	"fmt"
	"time"

	"etrain/internal/baseline"
	"etrain/internal/core"
	"etrain/internal/parallel"
	"etrain/internal/sched"
	"etrain/internal/sim"
)

// etrainFactory builds eTrain strategies over Θ with a fixed k.
func etrainFactory(k int) sim.KeyedFactory {
	return sim.Keyed(fmt.Sprintf("etrain/k=%d", k), func(theta float64) (sched.Strategy, error) {
		return core.New(core.Options{Theta: theta, K: k})
	})
}

func peresFactory() sim.KeyedFactory {
	return sim.Keyed("peres", func(omega float64) (sched.Strategy, error) {
		return baseline.NewPerES(omega)
	})
}

func etimeFactory() sim.KeyedFactory {
	return sim.Keyed("etime", func(v float64) (sched.Strategy, error) {
		return baseline.NewETime(v)
	})
}

// baselineFactory wraps transmit-on-arrival as a control-less sweep point
// so baseline runs share the runner's cache (fig8a and fig8b evaluate the
// same baseline configs).
func baselineFactory() sim.KeyedFactory {
	return sim.Keyed("baseline", func(float64) (sched.Strategy, error) {
		return baseline.NewImmediate(), nil
	})
}

// notePartial records a sweep's failed points as table notes and keeps the
// partial panel alive. A sweep with zero surviving points, or a
// non-sweep failure, stays fatal.
func notePartial(tbl *Table, points []sim.EDPoint, err error) error {
	if err == nil {
		return nil
	}
	var se *sim.SweepError
	if !errors.As(err, &se) || len(points) == 0 {
		return err
	}
	for _, f := range se.Failures {
		tbl.AddNote("sweep point control=%g failed and was dropped: %v", f.Control, f.Err)
	}
	return nil
}

// Fig7a reproduces the Θ sweep: Θ from 0 to 3 in steps of 0.2 with k = 20
// and λ = 0.08. The paper reports energy falling ≈40% (from >1000 J to
// ≈600 J) while average delay rises from 18 s to 70 s.
func Fig7a(opts Options) (*Table, error) {
	cfg, err := buildSimConfig(opts, 0.08)
	if err != nil {
		return nil, err
	}
	var thetas []float64
	for th := 0.0; th <= 3.001; th += 0.2 {
		thetas = append(thetas, th)
	}
	tbl := &Table{
		ID:      "fig7a",
		Title:   "Impact of the cost bound Θ (k=20, λ=0.08)",
		Columns: []string{"theta", "energy_J", "delay_s", "violation"},
	}
	points, err := opts.runner().Sweep(cfg, etrainFactory(20), thetas)
	if err := notePartial(tbl, points, err); err != nil {
		return nil, err
	}
	for _, p := range points {
		tbl.AddRow(fmt.Sprintf("%.1f", p.Control), p.EnergyJoules,
			p.Delay.Seconds(), fmt.Sprintf("%.3f", p.ViolationRatio))
	}
	if len(points) >= 2 {
		first, last := points[0], points[len(points)-1]
		tbl.AddNote("energy %.0f J -> %.0f J (%.0f%% reduction); delay %.0f s -> %.0f s (paper: >1000 -> ~600 J, 18 -> 70 s)",
			first.EnergyJoules, last.EnergyJoules,
			(1-last.EnergyJoules/first.EnergyJoules)*100,
			first.Delay.Seconds(), last.Delay.Seconds())
	}
	return tbl, nil
}

// Fig7b reproduces the k panel: E–D curves for k in {2, 4, 8, 16}, each
// swept over Θ. Larger k dominates; the gain from 8 to 16 is marginal.
func Fig7b(opts Options) (*Table, error) {
	cfg, err := buildSimConfig(opts, 0.08)
	if err != nil {
		return nil, err
	}
	thetas := []float64{0, 0.4, 0.8, 1.2, 1.6, 2.0, 2.5, 3.0}
	tbl := &Table{
		ID:      "fig7b",
		Title:   "E-D panel for k in {2,4,8,16} (each point: one Θ)",
		Columns: []string{"k", "theta", "energy_J", "delay_s"},
	}
	type kd struct {
		k      int
		energy float64
	}
	runner := opts.runner()
	var at40 []kd
	for _, k := range []int{2, 4, 8, 16} {
		points, err := runner.Sweep(cfg, etrainFactory(k), thetas)
		if err := notePartial(tbl, points, err); err != nil {
			return nil, err
		}
		for _, p := range points {
			tbl.AddRow(k, fmt.Sprintf("%.1f", p.Control), p.EnergyJoules, p.Delay.Seconds())
		}
		// Interpolate the energy at 40 s delay for the paper's comparison.
		at40 = append(at40, kd{k: k, energy: interpolateEnergyAt(points, 40*time.Second)})
	}
	for _, e := range at40 {
		tbl.AddNote("k=%d: ~%.0f J at 40 s delay", e.k, e.energy)
	}
	tbl.AddNote("paper: k 2 -> 8 saves ~460 J at 40 s delay; 8 -> 16 only ~30 J more")
	return tbl, nil
}

// interpolateEnergyAt linearly interpolates a sweep's energy at the target
// delay; points need not be sorted by delay.
func interpolateEnergyAt(points []sim.EDPoint, target time.Duration) float64 {
	var lo, hi *sim.EDPoint
	for i := range points {
		p := &points[i]
		if p.Delay <= target && (lo == nil || p.Delay > lo.Delay) {
			lo = p
		}
		if p.Delay >= target && (hi == nil || p.Delay < hi.Delay) {
			hi = p
		}
	}
	switch {
	case lo == nil && hi == nil:
		return 0
	case lo == nil:
		return hi.EnergyJoules
	case hi == nil:
		return lo.EnergyJoules
	case lo.Delay == hi.Delay:
		return lo.EnergyJoules
	}
	frac := float64(target-lo.Delay) / float64(hi.Delay-lo.Delay)
	return lo.EnergyJoules + frac*(hi.EnergyJoules-lo.EnergyJoules)
}

// Fig8a reproduces the comparative E–D panel at λ = 0.08: eTrain (Θ sweep)
// against PerES (Ω sweep), eTime (V sweep) and the baseline point.
func Fig8a(opts Options) (*Table, error) {
	cfg, err := buildSimConfig(opts, 0.08)
	if err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:      "fig8a",
		Title:   "E-D panel of all scheduling algorithms (λ=0.08)",
		Columns: []string{"strategy", "control", "energy_J", "delay_s", "violation"},
	}
	sweeps := []struct {
		name     string
		factory  sim.KeyedFactory
		controls []float64
	}{
		{"etrain", etrainFactory(core.KInfinite), []float64{0, 0.5, 1, 2, 4, 6, 10, 14}},
		{"peres", peresFactory(), []float64{0.1, 0.3, 0.6, 1.0, 1.5, 2.0}},
		{"etime", etimeFactory(), []float64{2, 4, 8, 12, 16, 24}},
	}
	runner := opts.runner()
	for _, s := range sweeps {
		points, err := runner.Sweep(cfg, s.factory, s.controls)
		if err := notePartial(tbl, points, err); err != nil {
			return nil, err
		}
		for _, p := range points {
			tbl.AddRow(s.name, fmt.Sprintf("%.2f", p.Control), p.EnergyJoules,
				p.Delay.Seconds(), fmt.Sprintf("%.3f", p.ViolationRatio))
		}
	}
	base, err := runner.Point(cfg, baselineFactory(), 0)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("baseline", "-", base.EnergyJoules,
		base.Delay.Seconds(), fmt.Sprintf("%.3f", base.ViolationRatio))
	tbl.AddNote("paper Fig. 8a: eTrain's curve dominates; eTime beats PerES; baseline spends the most")
	return tbl, nil
}

// fig8bDelayTarget is the matched normalized delay of the λ sweep. The
// paper uses 55 s; our train-gap distribution gives eTrain a pure-piggyback
// operating point at ≈64 s, so the reproduction compares at 65 s (see
// DESIGN.md) and reports the shape at 55 s in the notes.
const fig8bDelayTarget = 65 * time.Second

// Fig8b reproduces the λ sweep: total energy and deadline violation ratio
// of every strategy, each calibrated to the same normalized delay, for λ
// in {0.04 .. 0.12}. The λ rows are independent, so they fan out across
// the experiment's worker budget while each row's calibrations share the
// runner's point cache.
func Fig8b(opts Options) (*Table, error) {
	tbl := &Table{
		ID:    "fig8b",
		Title: fmt.Sprintf("Energy vs arrival rate λ at matched delay %.0f s", fig8bDelayTarget.Seconds()),
		Columns: []string{"lambda", "baseline_J", "etrain_J", "etime_J", "peres_J",
			"etrain_saving_J", "etrain_viol", "etime_viol", "peres_viol"},
	}
	lambdas := []float64{0.04, 0.06, 0.08, 0.10, 0.12}
	runner := opts.runner()
	rows, err := parallel.Map(opts.limit(), len(lambdas), func(i int) ([]string, error) {
		lambda := lambdas[i]
		cfg, err := buildSimConfig(opts, lambda)
		if err != nil {
			return nil, err
		}
		base, err := runner.Point(cfg, baselineFactory(), 0)
		if err != nil {
			return nil, err
		}
		et, err := runner.CalibrateDelay(cfg, etrainFactory(core.KInfinite), fig8bDelayTarget, 0, 20, 7)
		if err != nil {
			return nil, err
		}
		em, err := runner.CalibrateDelay(cfg, etimeFactory(), fig8bDelayTarget, 1, 40, 7)
		if err != nil {
			return nil, err
		}
		pr, err := runner.CalibrateDelay(cfg, peresFactory(), fig8bDelayTarget, 0, 3, 7)
		if err != nil {
			return nil, err
		}
		return formatRow(fmt.Sprintf("%.2f", lambda), base.EnergyJoules,
			et.EnergyJoules, em.EnergyJoules, pr.EnergyJoules,
			base.EnergyJoules-et.EnergyJoules,
			fmt.Sprintf("%.3f", et.ViolationRatio),
			fmt.Sprintf("%.3f", em.ViolationRatio),
			fmt.Sprintf("%.3f", pr.ViolationRatio)), nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig8b: %w", err)
	}
	tbl.Rows = rows
	tbl.AddNote("paper Fig. 8b: baseline rises then flattens ~2600 J; eTrain saves 628-1650 J vs baseline; eTime beats PerES by ~320 J at λ=0.08")
	return tbl, nil
}
