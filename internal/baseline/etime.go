package baseline

import (
	"fmt"
	"time"

	"etrain/internal/sched"
	"etrain/internal/workload"
)

// ETime reimplements the eTime scheduler [16] from the paper's description:
// a Lyapunov strategy that decides once per 60-second slot (the period
// [16] suggests) whether to drain the whole backlog, transmitting when the
// estimated channel is good relative to its average. The tradeoff
// parameter V balances energy against delay (larger V defers longer);
// eTime is not deadline-aware. The paper restricts its multi-interface
// selection to the cellular interface, as we do here.
type ETime struct {
	// v is the fixed energy/performance tradeoff parameter V.
	v float64
}

var _ sched.Strategy = (*ETime)(nil)

// NewETime returns an eTime instance with tradeoff parameter v (V).
func NewETime(v float64) (*ETime, error) {
	if v < 0 {
		return nil, fmt.Errorf("baseline: negative V %v", v)
	}
	return &ETime{v: v}, nil
}

// Name implements sched.Strategy.
func (*ETime) Name() string { return "etime" }

// SlotLength implements sched.Strategy.
func (*ETime) SlotLength() time.Duration { return 60 * time.Second }

// Schedule implements sched.Strategy: drain everything when the V-weighted
// backlog clears the channel-quality bar, otherwise hold. Backlog pressure
// grows every slot, so the queue always drains eventually (Lyapunov
// stability), but without deadline guarantees.
func (e *ETime) Schedule(ctx *sched.SlotContext) []workload.Packet {
	q := ctx.Queues
	if q.Len() == 0 {
		return nil
	}
	quality := 1.0
	if ctx.EstimateBandwidth != nil && ctx.MeanBandwidth > 0 {
		quality = ctx.EstimateBandwidth() / ctx.MeanBandwidth
	}
	// Pressure: queued packets weighted by how long they have waited, in
	// slot units. One just-arrived packet exerts pressure ~1.
	pressure := 0.0
	q.Each(func(p workload.Packet) {
		waited := (ctx.Now - p.ArrivedAt).Seconds() / ctx.SlotLength.Seconds()
		pressure += 1 + waited
	})
	if pressure*quality >= e.v {
		return DrainAll(q)
	}
	return nil
}
