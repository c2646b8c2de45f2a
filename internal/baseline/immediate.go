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
// every packet is transmitted as soon as it arrives. It is not safe for
// concurrent use: Schedule reuses its selection buffer, its only state, so
// one Immediate serves any number of runs in turn. The zero value is
// ready.
type Immediate struct {
	sel []workload.Packet // the last selection, reused by the next Schedule
}

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
// The result is valid until the next Schedule call.
func (b *Immediate) Schedule(ctx *sched.SlotContext) []workload.Packet {
	b.sel = drain(b.sel[:0], ctx.Queues)
	if len(b.sel) == 0 {
		return nil
	}
	return b.sel
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
	if q.Len() == 0 {
		return nil
	}
	return drain(make([]workload.Packet, 0, q.Len()), q)
}

// drain appends every queued packet to out, removing it from q, ordered by
// arrival time across apps (ties in the queues' iteration order).
//
//etrain:hotpath
func drain(out []workload.Packet, q *sched.Queues) []workload.Packet {
	for {
		oldest, ok := q.Oldest()
		if !ok {
			return out
		}
		p, ok := q.PopByID(oldest.App, oldest.ID)
		if !ok {
			return out
		}
		out = append(out, p)
	}
}
