package radio

import "time"

// DefaultTraceStep is the sampling period used when PowerTrace is given a
// non-positive step: 100 ms, the paper's power-monitor sampling period.
const DefaultTraceStep = 100 * time.Millisecond

// PowerSample is one instantaneous power reading.
type PowerSample struct {
	// At is the virtual instant of the sample.
	At time.Duration
	// Watts is the extra power above the IDLE baseline.
	Watts float64
	// State is the radio state at the sample instant.
	State State
}

// PowerTrace samples the timeline's instantaneous power every step from 0 to
// horizon (exclusive). It renders the kind of trace the paper shows in
// Fig. 2 and Fig. 4 and feeds the simulated power monitor.
func (tl *Timeline) PowerTrace(m PowerModel, horizon, step time.Duration) []PowerSample {
	if step <= 0 {
		step = DefaultTraceStep
	}
	n := int(horizon / step)
	out := make([]PowerSample, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(i) * step
		s := tl.StateAt(m, at)
		out = append(out, PowerSample{At: at, Watts: m.Power(s), State: s})
	}
	return out
}
