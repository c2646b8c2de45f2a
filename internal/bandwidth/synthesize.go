package bandwidth

import (
	"math"
	"slices"
	"time"

	"etrain/internal/randx"
)

// Regime describes one mobility regime of the synthetic trace generator.
// The paper's trace was collected riding a bus downtown and then walking on
// campus; each environment has a distinct bandwidth mean, volatility and
// temporal correlation.
type Regime struct {
	Name string
	// Mean uplink bandwidth in bytes/second.
	Mean float64
	// StdDev of the stationary distribution in bytes/second.
	StdDev float64
	// Corr is the one-second autocorrelation in (0, 1); larger is smoother.
	Corr float64
	// MeanDwell is how long the process stays in this regime on average.
	MeanDwell time.Duration
}

// DefaultRegimes returns the three regimes used to emulate the paper's
// bus-then-campus collection run over a 3G (TD-SCDMA) uplink.
func DefaultRegimes() []Regime {
	return []Regime{
		{Name: "bus", Mean: 180e3, StdDev: 90e3, Corr: 0.92, MeanDwell: 120 * time.Second},
		{Name: "walk", Mean: 320e3, StdDev: 80e3, Corr: 0.97, MeanDwell: 180 * time.Second},
		{Name: "indoor", Mean: 90e3, StdDev: 50e3, Corr: 0.95, MeanDwell: 60 * time.Second},
	}
}

// Synthesize generates a trace of the given duration from a regime-switching
// Gauss–Markov process. The same seed always yields the same trace.
func Synthesize(src *randx.Source, duration time.Duration, regimes []Regime) (*Trace, error) {
	t := &Trace{}
	if err := SynthesizeInto(t, src, duration, regimes); err != nil {
		return nil, err
	}
	return t, nil
}

// SynthesizeInto is Synthesize writing into t: it replaces t's samples,
// reusing their buffer, so a caller that builds many traces in turn, such
// as a fleet shard, allocates nothing once the buffer has grown.
//
//etrain:hotpath
func SynthesizeInto(t *Trace, src *randx.Source, duration time.Duration, regimes []Regime) error {
	if len(regimes) == 0 {
		regimes = DefaultRegimes()
	}
	n := int(duration / time.Second)
	if n <= 0 {
		n = 1
	}
	samples := slices.Grow(t.samples[:0], n)

	regimeIdx := src.Intn(len(regimes))
	reg := regimes[regimeIdx]
	dwellLeft := int(src.Exp(reg.MeanDwell.Seconds()))
	value := reg.Mean
	// scale turns a standard normal draw into the regime's AR(1)
	// innovation; it changes only with the regime.
	scale := reg.StdDev * sqrt1m(reg.Corr)

	for len(samples) < n {
		if dwellLeft <= 0 {
			// Switch to a different regime, uniformly among the others.
			next := src.Intn(len(regimes) - 1)
			if next >= regimeIdx {
				next++
			}
			regimeIdx = next
			reg = regimes[regimeIdx]
			scale = reg.StdDev * sqrt1m(reg.Corr)
			dwellLeft = int(src.Exp(reg.MeanDwell.Seconds()))
			if dwellLeft < 1 {
				dwellLeft = 1
			}
		}
		// AR(1) step towards the regime mean.
		innovation := scale * src.NormFloat64()
		value = reg.Mean + reg.Corr*(value-reg.Mean) + innovation
		if value < 1e3 {
			value = 1e3 // deep fade floor: 1 KB/s
		}
		samples = append(samples, value)
		dwellLeft--
	}
	return t.own(samples)
}

// FromSeed generates the trace Synthesize would produce from a fresh
// source seeded with seed. A session's Hello carries only this seed: the
// server rebuilds the exact channel the client's synthesizer drew, so the
// trace itself never crosses the wire.
func FromSeed(seed int64, duration time.Duration, regimes []Regime) (*Trace, error) {
	t := &Trace{}
	if err := FromSeedInto(t, seed, duration, regimes); err != nil {
		return nil, err
	}
	return t, nil
}

// FromSeedInto is FromSeed writing into t, as SynthesizeInto does.
func FromSeedInto(t *Trace, seed int64, duration time.Duration, regimes []Regime) error {
	// SynthesizeInto consumes the source fully, so it can come from the
	// pool.
	src := randx.Acquire(seed)
	defer src.Release()
	return SynthesizeInto(t, src, duration, regimes)
}

// sqrt1m returns sqrt(1 - c²), the innovation scale that gives an AR(1)
// process the requested stationary standard deviation.
func sqrt1m(c float64) float64 {
	v := 1 - c*c
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Estimator models the imperfect channel knowledge available to strategies
// like PerES and eTime: the estimate of the current bandwidth is the true
// value one observation lag ago, corrupted by multiplicative noise.
// eTrain deliberately never uses an Estimator (paper §IV: channel
// obliviousness is an advantage).
type Estimator struct {
	trace *Trace
	src   *randx.Source
	// Lag is the observation delay; estimates describe t − Lag.
	Lag time.Duration
	// NoiseStdDev is the relative error std-dev (e.g. 0.3 for 30%).
	NoiseStdDev float64
}

// NewEstimator returns an estimator over trace with the given lag and
// relative noise.
func NewEstimator(trace *Trace, src *randx.Source, lag time.Duration, noise float64) *Estimator {
	return &Estimator{trace: trace, src: src, Lag: lag, NoiseStdDev: noise}
}

// Reseeded returns a copy of the estimator drawing its noise from src,
// leaving the receiver untouched. Sweep runners hand every simulation run
// its own reseeded copy so that (a) concurrent runs never race on one
// shared noise stream and (b) a run's estimates depend only on the run's
// identity, never on how many estimates earlier runs consumed.
func (e *Estimator) Reseeded(src *randx.Source) *Estimator {
	return &Estimator{trace: e.trace, src: src, Lag: e.Lag, NoiseStdDev: e.NoiseStdDev}
}

// Estimate returns the strategy-visible bandwidth estimate for time at.
func (e *Estimator) Estimate(at time.Duration) float64 {
	truth := e.trace.At(at - e.Lag)
	noisy := truth * (1 + e.NoiseStdDev*e.src.NormFloat64())
	if noisy < 1e3 {
		noisy = 1e3
	}
	return noisy
}
