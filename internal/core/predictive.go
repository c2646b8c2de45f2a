package core

import (
	"time"

	"etrain/internal/sched"
	"etrain/internal/workload"
)

// Predictive is the hook-less ablation of eTrain's Heartbeat Monitor: it
// observes only the first warmupBeats heartbeats of each train app (the
// paper's assumption that t_s(h_{i,0}) and cycle_i suffice, since
// t_s(h_{i,j}) = t_s(h_{i,0}) + cycle_i·j), then drives the scheduler
// purely from the extrapolated timetable instead of live hook
// notifications.
//
// With perfectly periodic heartbeats this is indistinguishable from the
// hooked eTrain. With jittered or adaptive heartbeats the predictions
// drift away from the real departures, data stops riding the actual tails,
// and energy degrades — quantifying why the paper implements the Xposed
// hook rather than pure prediction (§V-2).
type Predictive struct {
	inner       *ETrain
	warmupBeats int

	observed map[string][]time.Duration
	cycle    map[string]time.Duration
	anchor   map[string]time.Duration
}

var _ sched.Strategy = (*Predictive)(nil)

// NewPredictive wraps an eTrain configuration with the prediction-driven
// monitor. warmupBeats is how many live observations per app are used to
// establish the cycle (minimum 2).
func NewPredictive(opts Options, warmupBeats int) (*Predictive, error) {
	inner, err := New(opts)
	if err != nil {
		return nil, err
	}
	if warmupBeats < 2 {
		warmupBeats = 2
	}
	return &Predictive{
		inner:       inner,
		warmupBeats: warmupBeats,
		observed:    make(map[string][]time.Duration),
		cycle:       make(map[string]time.Duration),
		anchor:      make(map[string]time.Duration),
	}, nil
}

// Name implements sched.Strategy.
func (p *Predictive) Name() string { return "etrain-predictive" }

// SlotLength implements sched.Strategy.
func (p *Predictive) SlotLength() time.Duration { return p.inner.SlotLength() }

// Schedule implements sched.Strategy.
func (p *Predictive) Schedule(ctx *sched.SlotContext) []workload.Packet {
	trainNow := false

	// Live observations are consumed only during each app's warmup.
	for _, b := range ctx.Beats {
		if _, learned := p.cycle[b.App]; learned {
			continue
		}
		obs := append(p.observed[b.App], b.At)
		p.observed[b.App] = obs
		trainNow = true // warmup beats are real observations; use them
		if len(obs) >= p.warmupBeats {
			gap := (obs[len(obs)-1] - obs[0]) / time.Duration(len(obs)-1)
			if gap > 0 {
				p.cycle[b.App] = gap
				p.anchor[b.App] = obs[len(obs)-1]
			}
		}
	}

	// Extrapolated timetable: does any learned app have a predicted beat
	// in this slot?
	if !trainNow {
		for app, cycle := range p.cycle {
			sinceAnchor := ctx.Now - p.anchor[app]
			if sinceAnchor < 0 {
				continue
			}
			// A predicted beat anchor + n·cycle (n ≥ 1) falls inside
			// [Now, Now+SlotLength) iff the distance to the next multiple
			// of the cycle is shorter than the slot.
			untilNext := (cycle - sinceAnchor%cycle) % cycle
			if untilNext < ctx.SlotLength && sinceAnchor+untilNext >= cycle {
				trainNow = true
				break
			}
		}
	}

	shadow := *ctx
	shadow.HeartbeatNow = trainNow
	return p.inner.Schedule(&shadow)
}
