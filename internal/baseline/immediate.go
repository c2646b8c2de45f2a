// Package baseline implements the strategies eTrain is compared against in
// §VI: the default baseline (transmit immediately on arrival) and
// reimplementations of PerES and eTime from their published descriptions as
// summarized by the paper.
//
// PerES and eTime are both Lyapunov-framework schedulers that rely on
// estimating the instantaneous wireless bandwidth and try to transmit when
// the channel is good. The paper's critique — that such estimates are noisy
// in practice — is reproduced by feeding them the lagged, noisy estimator
// from internal/bandwidth, while eTrain stays channel-oblivious.
package baseline

import (
	"time"

	"etrain/internal/sched"
	"etrain/internal/workload"
)

// Immediate is the paper's default baseline: no scheduling intelligence,
// every packet is transmitted as soon as it arrives.
type Immediate struct{}

var (
	_ sched.Strategy = (*Immediate)(nil)
	_ sched.Waker    = (*Immediate)(nil)
)

// NewImmediate returns the baseline strategy.
func NewImmediate() *Immediate { return &Immediate{} }

// Name implements sched.Strategy.
func (*Immediate) Name() string { return "baseline" }

// SlotLength implements sched.Strategy.
func (*Immediate) SlotLength() time.Duration { return time.Second }

// Schedule implements sched.Strategy: drain every queue in arrival order.
func (*Immediate) Schedule(ctx *sched.SlotContext) []workload.Packet {
	return DrainAll(ctx.Queues)
}

// NextWake implements sched.Waker: Schedule selects whenever anything is
// queued.
//
//etrain:hotpath
func (*Immediate) NextWake(q *sched.Queues, now, stop, _ time.Duration) time.Duration {
	if q.Len() > 0 {
		return now
	}
	return stop
}

// DrainAll removes and returns every queued packet, ordered by arrival time
// across apps. It returns nil when nothing is queued.
func DrainAll(q *sched.Queues) []workload.Packet {
	// Check emptiness first: Len walks every app's queue, and an engine
	// that steps every slot mostly finds nothing queued.
	oldest, ok := q.Oldest()
	if !ok {
		return nil
	}
	out := make([]workload.Packet, 0, q.Len())
	for ok {
		p, popped := q.PopByID(oldest.App, oldest.ID)
		if !popped {
			break
		}
		out = append(out, p)
		oldest, ok = q.Oldest()
	}
	return out
}
