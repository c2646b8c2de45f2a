package diurnal

import (
	"time"

	"etrain/internal/randx"
)

// phaseNamespace salts per-device phase derivation so the phase never
// aliases any other seed-derived stream.
var phaseNamespace = randx.DeriveString("etrain/diurnal/phase")

// Sampler is a profile bound to one device: its class curve, its
// seed-derived phase offset and the clock mapping from sim time to
// diurnal time. Every method is a pure function of (profile, class,
// device seed, sim time) plus any explicit randx stream the caller
// passes in, so samplers preserve the fleet determinism contract.
type Sampler struct {
	prof  *Profile
	curve *Curve
	phase time.Duration
	scale float64
}

// ForDevice binds the profile to one device. class is the string form of
// the device's workload.ActivenessClass; deviceSeed is the device's
// identity-derived seed. The phase is computed with randx.Derive and
// consumes no stream state, so attaching a profile never shifts the
// device's other draws.
func (p *Profile) ForDevice(class string, deviceSeed int64) *Sampler {
	s := &Sampler{}
	p.ForDeviceInto(s, class, deviceSeed)
	return s
}

// ForDeviceInto is ForDevice binding s in place, so a caller that binds
// many devices in turn, such as a fleet shard, allocates no sampler.
func (p *Profile) ForDeviceInto(s *Sampler, class string, deviceSeed int64) {
	var phase time.Duration
	if p.PhaseJitter > 0 {
		u := float64(randx.Derive(deviceSeed, phaseNamespace)) / float64(1<<63)
		phase = time.Duration(u * float64(p.PhaseJitter))
	}
	*s = Sampler{
		prof:  p,
		curve: p.CurveFor(class),
		phase: phase,
		scale: p.normalizedScale(),
	}
}

// clock maps a sim instant onto the device's diurnal clock (phased).
func (s *Sampler) clock(simAt time.Duration) time.Duration {
	return s.prof.Start + s.phase + time.Duration(float64(simAt)*s.scale)
}

// eventClock maps a sim instant onto the fleet's diurnal clock —
// scheduled events deliberately ignore per-device phase so a push storm
// hits every device at the same sim instant.
func (s *Sampler) eventClock(simAt time.Duration) time.Duration {
	return s.prof.Start + time.Duration(float64(simAt)*s.scale)
}

// eventFactors returns the composed cargo and beat multipliers of every
// event active at fleet diurnal instant d. Inactive dimensions stay 1.
func (s *Sampler) eventFactors(d time.Duration) (cargo, beat float64) {
	cargo, beat = 1, 1
	for _, e := range s.prof.Events {
		if !e.active(d) {
			continue
		}
		if e.CargoFactor > 0 {
			cargo *= e.CargoFactor
		}
		if e.BeatFactor > 0 {
			beat *= e.BeatFactor
		}
	}
	return cargo, beat
}

// CargoFactor returns the cargo-rate multiplier at a sim instant: the
// device's phased activity level times any active scheduled events.
func (s *Sampler) CargoFactor(simAt time.Duration) float64 {
	cargo, _ := s.eventFactors(s.eventClock(simAt))
	return s.curve.Level(s.clock(simAt)) * cargo
}

// BeatFactor returns the heartbeat-cadence multiplier at a sim instant.
// Only scheduled events modulate cadence — apps keep their configured
// cycles through the daily curve (phones beat at night too), but a storm
// event can tighten or relax them fleet-wide.
func (s *Sampler) BeatFactor(simAt time.Duration) float64 {
	_, beat := s.eventFactors(s.eventClock(simAt))
	return beat
}

// MaxCargoFactor returns an upper bound on CargoFactor over all time,
// used as the thinning envelope for arrival generation.
func (s *Sampler) MaxCargoFactor() float64 {
	bound := s.curve.Max()
	for _, e := range s.prof.Events {
		if e.CargoFactor > 1 {
			bound *= e.CargoFactor
		}
	}
	return bound
}

// AppendArrivals appends to dst the arrival instants of a non-homogeneous
// Poisson process over [0, horizon) whose instantaneous rate is
// CargoFactor(t)/meanGap, by thinning a homogeneous envelope process at
// the MaxCargoFactor bound. With a flat level-1 curve and no events this
// consumes more draws than randx.PoissonProcess but realizes the same
// law; expected count over any window integrates the activity curve
// (property-tested).
//
//etrain:hotpath
func (s *Sampler) AppendArrivals(dst []time.Duration, src *randx.Source, meanGap, horizon time.Duration) []time.Duration {
	if meanGap <= 0 || horizon <= 0 {
		return dst
	}
	bound := s.MaxCargoFactor()
	if bound <= 0 {
		return dst
	}
	envelopeGap := meanGap.Seconds() / bound
	at := time.Duration(0)
	for {
		gap := src.Exp(envelopeGap)
		at += time.Duration(gap * float64(time.Second))
		if at >= horizon {
			return dst
		}
		if src.Float64()*bound <= s.CargoFactor(at) {
			dst = append(dst, at)
		}
	}
}

// WindowWeight returns the integral of the device's activity level over
// the sim window [0, window), in sim-seconds. A flat level-1 curve gives
// exactly window.Seconds(); session synthesis scales its upload counts
// by WindowWeight/window so volume follows the curve's area.
func (s *Sampler) WindowWeight(window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return s.curve.Integral(s.clock(0), s.clock(window)) / s.scale
}

// PlaceInWindow maps a uniform draw u ∈ [0, 1) onto a sim instant in
// [0, window) distributed proportionally to the device's activity level
// (inverse-CDF over the phased curve). It is monotone in u, so sorted
// draws give sorted instants.
func (s *Sampler) PlaceInWindow(u float64, window time.Duration) time.Duration {
	if window <= 0 {
		return 0
	}
	if u < 0 {
		u = 0
	} else if u >= 1 {
		u = 1
	}
	a, b := s.clock(0), s.clock(window)
	area := s.curve.Integral(a, b)
	if area <= 0 {
		// Curve silent across the whole window: fall back to uniform.
		return time.Duration(u * float64(window))
	}
	target := s.curve.cum(a) + u*area
	d := s.curve.inverseCum(target)
	at := time.Duration(float64(d-a) / s.scale)
	if at < 0 {
		at = 0
	}
	if at >= window {
		at = window - 1 // float guard: stay inside the half-open window
	}
	return at
}

// ScaleBeat divides a heartbeat interval by the beat factor active when
// the interval starts: a factor-2 storm makes beats arrive twice as
// fast. The result is clamped below at 1 ms so a pathological factor can
// never stall a schedule walk.
func (s *Sampler) ScaleBeat(at, step time.Duration) time.Duration {
	f := s.BeatFactor(at)
	if f <= 0 || f == 1 {
		return step
	}
	scaled := time.Duration(float64(step) / f)
	if scaled < time.Millisecond {
		scaled = time.Millisecond
	}
	return scaled
}
