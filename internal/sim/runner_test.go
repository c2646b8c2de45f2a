package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
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

// runnerConfig builds a shortened paper setup with a noisy channel
// estimator, so sweeps exercise the per-run reseeding path. The horizon is
// cut to keep the determinism grid fast; CacheKey names everything the
// config derives from.
func runnerConfig(t testing.TB, seed int64, horizon time.Duration) Config {
	t.Helper()
	src := randx.New(seed)
	bw, err := bandwidth.Synthesize(src.Split(), horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	packets, err := workload.Generate(src.Split(), workload.DefaultSpecs(), horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Horizon:   horizon,
		Trains:    heartbeat.DefaultTrio(),
		Packets:   packets,
		Bandwidth: bw,
		Power:     radio.GalaxyS43G(),
		Estimator: bandwidth.NewEstimator(bw, src.Split(), time.Second, 0.3),
		Seed:      seed,
		CacheKey:  fmt.Sprintf("runner-test/seed=%d/horizon=%s", seed, horizon),
	}
}

func etrainKeyed(k int) KeyedFactory {
	return Keyed(fmt.Sprintf("etrain/k=%d", k), func(theta float64) (sched.Strategy, error) {
		return core.New(core.Options{Theta: theta, K: k})
	})
}

func etimeKeyed() KeyedFactory {
	return Keyed("etime", func(v float64) (sched.Strategy, error) {
		return baseline.NewETime(baseline.ETimeOptions{V: v})
	})
}

// TestSweepParallelMatchesSequential is the central determinism check at
// the sim layer: a Θ×k grid swept on one worker and on eight must produce
// byte-identical EDPoints, including the estimator-noise-sensitive eTime
// strategy.
func TestSweepParallelMatchesSequential(t *testing.T) {
	cfg := runnerConfig(t, 5, 30*time.Minute)
	thetas := []float64{0, 0.5, 1, 2, 4}
	cases := []struct {
		name    string
		factory KeyedFactory
	}{
		{"etrain-kinf", etrainKeyed(core.KInfinite)},
		{"etrain-k20", etrainKeyed(20)},
		{"etime", etimeKeyed()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, err := NewRunner(1).Sweep(cfg, tc.factory, thetas)
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewRunner(8).Sweep(cfg, tc.factory, thetas)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("parallel sweep diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}

// TestSweepOrderIndependent checks the stronger property behind the
// parallel==sequential guarantee: a point's value does not depend on which
// runs came before it, so sweeping a permuted grid yields the same value
// per control.
func TestSweepOrderIndependent(t *testing.T) {
	cfg := runnerConfig(t, 7, 30*time.Minute)
	factory := etrainKeyed(20)
	forward, err := NewRunner(1).Sweep(cfg, factory, []float64{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	backward, err := NewRunner(1).Sweep(cfg, factory, []float64{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range forward {
		mirror := backward[len(backward)-1-i]
		if !reflect.DeepEqual(pt, mirror) {
			t.Fatalf("control %v changed with evaluation order:\nforward:  %+v\nbackward: %+v",
				pt.Control, pt, mirror)
		}
	}
}

// TestSweepPreservesInputOrder pins the output-ordering contract under
// parallelism: points come back in input order even when the grid is not
// sorted and workers finish out of order.
func TestSweepPreservesInputOrder(t *testing.T) {
	cfg := runnerConfig(t, 9, 15*time.Minute)
	controls := []float64{3, 0, 2, 4, 1}
	points, err := NewRunner(8).Sweep(cfg, etrainKeyed(core.KInfinite), controls)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(controls) {
		t.Fatalf("got %d points for %d controls", len(points), len(controls))
	}
	for i, pt := range points {
		if pt.Control != controls[i] {
			t.Fatalf("point %d has control %v, want input-order %v", i, pt.Control, controls[i])
		}
	}
}

func TestRunnerCachesPoints(t *testing.T) {
	cfg := runnerConfig(t, 11, 15*time.Minute)
	r := NewRunner(2)
	factory := etrainKeyed(20)

	first, err := r.Point(cfg, factory, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheSize() != 1 {
		t.Fatalf("cache size %d after first point, want 1", r.CacheSize())
	}
	second, err := r.Point(cfg, factory, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheSize() != 1 {
		t.Fatalf("cache size %d after repeat point, want 1", r.CacheSize())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache hit differs from original: %+v vs %+v", first, second)
	}

	// Overlapping sweep grids reuse the shared points.
	if _, err := r.Sweep(cfg, factory, []float64{0.5, 1.0, 2.0}); err != nil {
		t.Fatal(err)
	}
	size := r.CacheSize()
	if size != 3 {
		t.Fatalf("cache size %d after overlapping sweep, want 3", size)
	}
	if _, err := r.Sweep(cfg, factory, []float64{1.0, 2.0, 3.0}); err != nil {
		t.Fatal(err)
	}
	if got := r.CacheSize(); got != 4 {
		t.Fatalf("cache size %d after second sweep, want 4 (two overlapping points reused)", got)
	}

	// Different strategy families must not collide even at equal controls.
	if _, err := r.Point(cfg, etrainKeyed(core.KInfinite), 1.0); err != nil {
		t.Fatal(err)
	}
	if got := r.CacheSize(); got != 5 {
		t.Fatalf("cache size %d after distinct-family point, want 5", got)
	}
}

func TestRunnerCacheRequiresBothKeys(t *testing.T) {
	cfg := runnerConfig(t, 13, 15*time.Minute)
	factory := etrainKeyed(20)

	r := NewRunner(1)
	anon := cfg
	anon.CacheKey = ""
	if _, err := r.Point(anon, factory, 1.0); err != nil {
		t.Fatal(err)
	}
	if r.CacheSize() != 0 {
		t.Fatal("point with empty config key was cached")
	}
	if _, err := r.Point(cfg, Keyed("", factory.New), 1.0); err != nil {
		t.Fatal(err)
	}
	if r.CacheSize() != 0 {
		t.Fatal("point with empty factory key was cached")
	}
}

// TestCachedPointMatchesFreshRunner verifies cache hits are bit-identical
// to recomputation: the derived seed depends on the run's identity, never
// on how many runs the runner executed before.
func TestCachedPointMatchesFreshRunner(t *testing.T) {
	cfg := runnerConfig(t, 17, 15*time.Minute)
	factory := etimeKeyed()

	warm := NewRunner(2)
	if _, err := warm.Sweep(cfg, factory, []float64{2, 4, 8}); err != nil {
		t.Fatal(err)
	}
	viaCacheableRunner, err := warm.Point(cfg, factory, 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRunner(1).Point(cfg, factory, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaCacheableRunner, fresh) {
		t.Fatalf("cached point differs from fresh recompute:\ncached: %+v\nfresh:  %+v", viaCacheableRunner, fresh)
	}
}

func TestSweepPartialFailure(t *testing.T) {
	cfg := runnerConfig(t, 19, 15*time.Minute)
	factory := Keyed("flaky", func(theta float64) (sched.Strategy, error) {
		if theta == 1 || theta == 3 {
			return nil, fmt.Errorf("injected failure at %v", theta)
		}
		return core.New(core.Options{Theta: theta, K: 20})
	})
	points, err := NewRunner(4).Sweep(cfg, factory, []float64{0, 1, 2, 3, 4})

	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error type %T, want *SweepError", err)
	}
	if got := se.Controls(); !reflect.DeepEqual(got, []float64{1, 3}) {
		t.Fatalf("failed controls %v, want [1 3]", got)
	}
	survivors := []float64{}
	for _, pt := range points {
		survivors = append(survivors, pt.Control)
	}
	if !reflect.DeepEqual(survivors, []float64{0, 2, 4}) {
		t.Fatalf("surviving controls %v, want [0 2 4] in input order", survivors)
	}
}

func TestFreeSweepAbortsOnFirstFailure(t *testing.T) {
	cfg := runnerConfig(t, 21, 15*time.Minute)
	points, err := Sweep(cfg, func(theta float64) (sched.Strategy, error) {
		if theta > 0.5 {
			return nil, errors.New("injected")
		}
		return core.New(core.Options{Theta: theta, K: 20})
	}, []float64{0, 1, 2})
	if err == nil {
		t.Fatal("free Sweep must fail when a point fails")
	}
	if points != nil {
		t.Fatalf("free Sweep returned partial points %v with an error", points)
	}
}

// syntheticCurve is a deterministic evaluate function for calibrate: delay
// rises linearly with the control, energy falls. It records every control
// it was asked about.
type syntheticCurve struct {
	base     time.Duration
	slope    time.Duration // delay gained per unit of control
	evals    []float64
	points   []EDPoint
	flattens float64 // controls beyond this add no delay (0 = never)
}

func (c *syntheticCurve) evaluate(ctrl float64) (EDPoint, error) {
	eff := ctrl
	if c.flattens > 0 && eff > c.flattens {
		eff = c.flattens
	}
	pt := EDPoint{
		Control:      ctrl,
		Delay:        c.base + time.Duration(eff*float64(c.slope)),
		EnergyJoules: 1000 / (1 + ctrl),
	}
	c.evals = append(c.evals, ctrl)
	c.points = append(c.points, pt)
	return pt, nil
}

func (c *syntheticCurve) probed(pt EDPoint) bool {
	for _, p := range c.points {
		if reflect.DeepEqual(p, pt) {
			return true
		}
	}
	return false
}

// TestCalibratePropertyMonotoneCurves: for any monotone linear delay curve
// with bounded slope and any achievable target, calibrate must land within
// calibrationTolerance of the target and must return a point it actually
// evaluated.
func TestCalibratePropertyMonotoneCurves(t *testing.T) {
	prop := func(baseSec, slopeSec, frac uint8) bool {
		base := time.Duration(baseSec) * time.Second              // [0, 255]s offset
		slope := time.Duration(1+int(slopeSec)%100) * time.Second // 1..100 s per control unit
		lo, hi := 0.0, 10.0
		curve := &syntheticCurve{base: base, slope: slope}
		// Target strictly inside the bracket's delay range.
		f := 0.05 + 0.9*float64(frac)/255
		target := base + time.Duration(f*(hi-lo)*float64(slope))

		pt, err := calibrate(curve.evaluate, target, lo, hi, 12)
		if err != nil {
			return false
		}
		if !curve.probed(pt) {
			t.Logf("returned point %+v was never evaluated", pt)
			return false
		}
		if absDuration(pt.Delay-target) > calibrationTolerance {
			t.Logf("base=%v slope=%v target=%v got delay %v (off by %v)",
				base, slope, target, pt.Delay, absDuration(pt.Delay-target))
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCalibrateReturnsProbedPointEvenOffTarget: when the target is
// unreachable (below the curve's floor or above its ceiling), calibrate
// still returns one of the evaluated points — never an interpolated or
// fabricated one.
func TestCalibrateReturnsProbedPointEvenOffTarget(t *testing.T) {
	for _, target := range []time.Duration{0, time.Hour} {
		curve := &syntheticCurve{base: 60 * time.Second, slope: 10 * time.Second}
		pt, err := calibrate(curve.evaluate, target, 0, 10, 12)
		if err != nil {
			t.Fatal(err)
		}
		if !curve.probed(pt) {
			t.Fatalf("target %v: returned point %+v was never evaluated", target, pt)
		}
	}
}

// TestCalibratePrefersCheaperPointWhenDelayFlattens pins the tolerance
// rule: once the delay curve flattens inside the tolerance band, the
// cheapest evaluated in-band point wins, not the first bracketing one.
func TestCalibratePrefersCheaperPointWhenDelayFlattens(t *testing.T) {
	// Delay saturates at base + 2*slope for controls past 2; energy keeps
	// falling with the control.
	curve := &syntheticCurve{base: 30 * time.Second, slope: 20 * time.Second, flattens: 2}
	target := 30*time.Second + 40*time.Second // the saturation delay
	pt, err := calibrate(curve.evaluate, target, 0, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !curve.probed(pt) {
		t.Fatalf("returned point %+v was never evaluated", pt)
	}
	if absDuration(pt.Delay-target) > calibrationTolerance {
		t.Fatalf("delay %v outside tolerance of target %v", pt.Delay, target)
	}
	// Every in-band evaluated point must cost at least as much as the pick.
	for _, p := range curve.points {
		if absDuration(p.Delay-target) <= calibrationTolerance && p.EnergyJoules < pt.EnergyJoules {
			t.Fatalf("calibrate picked %.1f J but evaluated cheaper in-band point %.1f J (control %v)",
				pt.EnergyJoules, p.EnergyJoules, p.Control)
		}
	}
}

// TestCalibrateDelayHitsCache: calibration probes on a cacheable config
// land in the runner cache, so re-calibrating the same target is free and
// bit-identical.
func TestCalibrateDelayHitsCache(t *testing.T) {
	cfg := runnerConfig(t, 23, 15*time.Minute)
	r := NewRunner(2)
	factory := etrainKeyed(20)
	first, err := r.CalibrateDelay(cfg, factory, 40*time.Second, 0, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	size := r.CacheSize()
	if size == 0 {
		t.Fatal("calibration probes were not cached")
	}
	second, err := r.CalibrateDelay(cfg, factory, 40*time.Second, 0, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheSize() != size {
		t.Fatalf("re-calibration recomputed points: cache grew %d -> %d", size, r.CacheSize())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("re-calibration diverged: %+v vs %+v", first, second)
	}
}

func TestDeriveSeedDistinguishesControlBitPatterns(t *testing.T) {
	// The cache keys controls by their float bit pattern; make sure the
	// derived seeds do too (0.1+0.2 != 0.3 must be distinct identities).
	x, y := 0.1, 0.2 // runtime addition: 0.30000000000000004, not the constant 0.3
	a := randx.Derive(5, randx.DeriveString("etrain"), math.Float64bits(x+y))
	b := randx.Derive(5, randx.DeriveString("etrain"), math.Float64bits(0.3))
	if a == b {
		t.Fatal("distinct bit patterns derived the same seed")
	}
}

// benchmarkControls is a 16-point grid, the acceptance floor for the
// sequential-vs-parallel comparison.
var benchmarkControls = []float64{
	0, 0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6, 7, 8, 10,
}

func benchmarkSweep(b *testing.B, workers int) {
	cfg := runnerConfig(b, 5, 30*time.Minute)
	factory := etrainKeyed(core.KInfinite)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh runner each iteration: the cache would otherwise turn every
		// iteration after the first into 16 map lookups.
		if _, err := NewRunner(workers).Sweep(cfg, factory, benchmarkControls); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchmarkSweep(b, 4) }
