// Package bandwidth models the uplink bandwidth of a cellular link as a
// trace of one-second samples, mirroring the paper's real-world trace
// (2 hours of 3G uplink measured once per second while riding a bus through
// downtown Wuhan and walking on a university campus).
//
// Because that trace is proprietary, the package ships a synthetic generator
// (see Synthesize) that produces traces with comparable statistics from a
// regime-switching Gauss–Markov process. Real traces can be loaded through
// internal/tracefile and used interchangeably.
package bandwidth

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// ErrEmptyTrace is returned when constructing a trace with no samples.
var ErrEmptyTrace = errors.New("bandwidth: trace has no samples")

// Trace is a sequence of uplink bandwidth samples in bytes/second, one per
// second of virtual time starting at t = 0.
type Trace struct {
	samples []float64
}

// NewTrace builds a trace from explicit samples (bytes/second). The slice is
// copied. Non-positive samples are clamped to a small positive floor so that
// transmission durations stay finite.
func NewTrace(samples []float64) (*Trace, error) {
	t := &Trace{}
	if err := t.own(append([]float64(nil), samples...)); err != nil {
		return nil, err
	}
	return t, nil
}

// own makes samples t's own, clamping them in place.
func (t *Trace) own(samples []float64) error {
	if len(samples) == 0 {
		return ErrEmptyTrace
	}
	const floor = 128 // bytes/s: a stalled but not dead link
	for i, s := range samples {
		if math.IsNaN(s) || s < floor {
			samples[i] = floor
		}
		if math.IsInf(s, 1) {
			samples[i] = math.MaxFloat64
		}
	}
	t.samples = samples
	return nil
}

// Len returns the trace length in seconds.
func (t *Trace) Len() int { return len(t.samples) }

// At returns the bandwidth (bytes/second) at virtual time at. Times beyond
// the trace wrap around, so a short trace can drive a long simulation.
func (t *Trace) At(at time.Duration) float64 {
	if at < 0 {
		at = 0
	}
	idx := int(at/time.Second) % len(t.samples)
	return t.samples[idx]
}

// Samples returns a copy of the underlying samples.
func (t *Trace) Samples() []float64 {
	out := make([]float64, len(t.samples))
	copy(out, t.samples)
	return out
}

// Mean returns the average bandwidth in bytes/second.
func (t *Trace) Mean() float64 {
	sum := 0.0
	for _, s := range t.samples {
		sum += s
	}
	return sum / float64(len(t.samples))
}

// TransmitTime returns how long transmitting size bytes takes if started at
// the given virtual time, integrating the piecewise-constant bandwidth
// second by second.
func (t *Trace) TransmitTime(start time.Duration, size int64) time.Duration {
	if size <= 0 {
		return 0
	}
	remaining := float64(size)
	now := start
	for i := 0; i < 1<<22; i++ { // hard cap guards against pathological loops
		b := t.At(now)
		// Time left inside the current one-second sample.
		secBoundary := now.Truncate(time.Second) + time.Second
		window := secBoundary - now
		capacity := b * window.Seconds()
		if capacity >= remaining {
			return now + time.Duration(remaining/b*float64(time.Second)) - start
		}
		remaining -= capacity
		now = secBoundary
	}
	return now - start
}

// Constant returns a trace with a single constant bandwidth, useful in tests
// and analytical experiments.
func Constant(bytesPerSecond float64, duration time.Duration) (*Trace, error) {
	n := int(duration / time.Second)
	if n <= 0 {
		return nil, fmt.Errorf("bandwidth: non-positive duration %v", duration)
	}
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = bytesPerSecond
	}
	return NewTrace(samples)
}
