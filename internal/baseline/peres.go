package baseline

import (
	"fmt"
	"time"

	"etrain/internal/sched"
	"etrain/internal/workload"
)

// PerES reimplements the PerES scheduler [15] from the paper's description:
// a Lyapunov-framework strategy with 1-second slots that
//
//   - estimates the instantaneous wireless bandwidth and transmits
//     opportunistically when the channel is good relative to its average,
//   - is deadline-aware: packets about to violate their deadline are
//     transmitted unconditionally, and
//   - adapts its tradeoff parameter V dynamically so the time-averaged
//     delay cost converges to the user's performance cost bound Ω.
//
// Because decisions hinge on a noisy, lagged channel estimate, PerES
// fragments transmissions more than eTrain and never aligns them with
// heartbeat tails.
type PerES struct {
	// omega is the user's performance cost bound Ω, PerES's one control.
	omega float64
	v     float64
	// emaCost is the exponential moving average of the instantaneous cost,
	// the signal V converges against.
	emaCost float64
	sel     []workload.Packet // the last selection, reused by the next Schedule
}

var _ sched.Strategy = (*PerES)(nil)

// PerES's adaptation constants: V starts at peresInitialV, moves by the
// factor 1 ± peresGamma every slot and stays within [peresMinV,
// peresMaxV]. V here is PerES's Lyapunov control knob (the paper's V), not
// volts.
const (
	peresInitialV = 2.0
	peresMinV     = 0.05
	peresMaxV     = 200
	peresGamma    = 0.01
)

// NewPerES returns a PerES instance with cost bound omega (Ω).
func NewPerES(omega float64) (*PerES, error) {
	if omega < 0 {
		return nil, fmt.Errorf("baseline: negative Omega %v", omega)
	}
	return &PerES{omega: omega, v: peresInitialV}, nil
}

// Name implements sched.Strategy.
func (*PerES) Name() string { return "peres" }

// SlotLength implements sched.Strategy.
func (*PerES) SlotLength() time.Duration { return time.Second }

// Schedule implements sched.Strategy. The result is valid until the next
// Schedule call.
func (p *PerES) Schedule(ctx *sched.SlotContext) []workload.Packet {
	q := ctx.Queues
	cost := q.CostAt(ctx.Now)

	// Dynamic V: converge the time-averaged cost to Ω.
	const emaAlpha = 0.05
	p.emaCost = (1-emaAlpha)*p.emaCost + emaAlpha*cost
	if p.emaCost > p.omega {
		p.v *= 1 - peresGamma
		if p.v < peresMinV {
			p.v = peresMinV
		}
	} else {
		p.v *= 1 + peresGamma
		if p.v > peresMaxV {
			p.v = peresMaxV
		}
	}

	if q.Len() == 0 {
		return nil
	}

	// Deadline-awareness: anything violating its deadline by the next slot
	// is transmitted unconditionally.
	sel := p.sel[:0]
	for a := range q.AppsView() {
		for j := 0; j < len(q.ViewAt(a)); {
			if q.ViewAt(a)[j].DeadlineViolated(ctx.Now + ctx.SlotLength) {
				sel = append(sel, q.PopAt(a, j))
			} else {
				j++
			}
		}
	}

	// Opportunistic drain when the (estimated) channel is good enough that
	// the V-weighted backlog justifies transmitting.
	quality := 1.0
	if ctx.EstimateBandwidth != nil && ctx.MeanBandwidth > 0 {
		quality = ctx.EstimateBandwidth() / ctx.MeanBandwidth
	}
	backlog := q.CostAt(ctx.Now + ctx.SlotLength)
	if backlog*quality >= p.v {
		sel = drain(sel, q)
	}
	p.sel = sel
	if len(sel) == 0 {
		return nil
	}
	return sel
}
