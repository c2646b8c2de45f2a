// Package core implements the paper's primary contribution: the eTrain
// online transmission strategy (Algorithm 1).
//
// eTrain maintains one waiting queue per cargo app. Each slot t it computes
// the instantaneous total delay cost P(t) (Eq. 6). Packets are released only
// when a heartbeat departs this slot (piggybacking: the tail is paid anyway)
// or when P(t) has accumulated past the user's cost bound Θ. The number of
// released packets is capped by K(t): k at heartbeat slots (k may be ∞) and
// 1 otherwise. Which packets to release is decided greedily by the
// subgradient rule of Eq. 9, which maximizes the negative Lyapunov drift
//
//	Σ_i [ P̄_i(t)·Σ_{u∈Q*_i} φ_u(t) − (Σ_{u∈Q*_i} φ_u(t))²/2 ]
//
// one packet at a time: each iteration adds the packet u of app i whose
// marginal gain (P̄_i(t) − Σ_{q∈Q*_i} φ_q(t))·φ_u(t) − φ_u(t)²/2 is largest.
//
// eTrain is deliberately channel-oblivious: it never inspects the bandwidth
// estimate in its slot context (§IV argues channel prediction is expensive
// and inaccurate in practice).
package core

import (
	"fmt"
	"math"
	"time"

	"etrain/internal/sched"
	"etrain/internal/workload"
)

// KInfinite requests an unbounded per-heartbeat batch (k ← ∞), the setting
// the paper uses for its comparative simulations.
const KInfinite = math.MaxInt32

// DefaultSlot is the paper's slot length for eTrain (and PerES): 1 second.
const DefaultSlot = time.Second

// SelectionPolicy chooses how the per-slot packet selection is made. The
// paper's Algorithm 1 uses the Eq. 9 subgradient rule; the alternatives
// exist for the ablation study in internal/experiments.
type SelectionPolicy int

// Selection policies.
const (
	// SelectEq9 is the paper's greedy subgradient rule (largest marginal
	// Lyapunov-drift gain first).
	SelectEq9 SelectionPolicy = iota + 1
	// SelectFIFO releases packets in arrival order.
	SelectFIFO
	// SelectCheapest releases the smallest-cost packet first (the
	// anti-greedy strawman).
	SelectCheapest
)

// Options parameterizes the eTrain strategy.
type Options struct {
	// Theta is the cost bound Θ: below it (and away from heartbeats)
	// nothing is transmitted.
	Theta float64
	// K is the per-heartbeat batch limit k (> 1); use KInfinite for ∞.
	K int
	// Slot is the decision period; DefaultSlot if zero.
	Slot time.Duration
	// Selection overrides the packet-selection rule; SelectEq9 if zero.
	Selection SelectionPolicy
	// ChannelGated enables the future-work variant of §IV: Θ-triggered
	// (non-heartbeat) transmissions additionally wait for the estimated
	// channel to be at least average. The paper argues the estimate is too
	// unreliable to help; the ablation quantifies that.
	ChannelGated bool
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Theta < 0 {
		return fmt.Errorf("core: negative Theta %v", o.Theta)
	}
	if o.K < 1 {
		return fmt.Errorf("core: K = %d, want >= 1", o.K)
	}
	if o.Slot < 0 {
		return fmt.Errorf("core: negative slot %v", o.Slot)
	}
	switch o.Selection {
	case 0, SelectEq9, SelectFIFO, SelectCheapest:
	default:
		return fmt.Errorf("core: unknown selection policy %d", int(o.Selection))
	}
	return nil
}

// ETrain is the online transmission strategy of the paper.
type ETrain struct {
	opts Options
}

var (
	_ sched.Strategy = (*ETrain)(nil)
	_ sched.Waker    = (*ETrain)(nil)
)

// New returns an eTrain strategy with the given options.
func New(opts Options) (*ETrain, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Slot == 0 {
		opts.Slot = DefaultSlot
	}
	if opts.Selection == 0 {
		opts.Selection = SelectEq9
	}
	return &ETrain{opts: opts}, nil
}

// Name implements sched.Strategy.
func (e *ETrain) Name() string { return "etrain" }

// SlotLength implements sched.Strategy.
func (e *ETrain) SlotLength() time.Duration { return e.opts.Slot }

// Theta returns the configured cost bound.
func (e *ETrain) Theta() float64 { return e.opts.Theta }

// K returns the configured batch limit.
func (e *ETrain) K() int { return e.opts.K }

// Schedule implements Algorithm 1 for one slot.
func (e *ETrain) Schedule(ctx *sched.SlotContext) []workload.Packet {
	q := ctx.Queues
	if q.Len() == 0 {
		return nil
	}

	// Line 1: P(t) from Eq. 6.
	cost := q.CostAt(ctx.Now)

	// Line 3: transmit only past the cost bound or on a train departure.
	if !ctx.HeartbeatNow && !e.gateOpen(cost) {
		return nil
	}

	// Future-work channel gate (ablation): hold Θ-triggered drips for an
	// at-least-average channel estimate.
	if e.opts.ChannelGated && !ctx.HeartbeatNow &&
		ctx.EstimateBandwidth != nil && ctx.MeanBandwidth > 0 {
		if ctx.EstimateBandwidth() < ctx.MeanBandwidth {
			return nil
		}
	}

	// Lines 4–8: K(t) modulation.
	limit := 1
	if ctx.HeartbeatNow {
		limit = e.opts.K
	}

	switch e.opts.Selection {
	case SelectFIFO:
		return fifoSelect(q, limit)
	case SelectCheapest:
		return cheapestSelect(q, ctx.Now+ctx.SlotLength, limit)
	default:
		return greedySelect(q, ctx.Now+ctx.SlotLength, limit)
	}
}

// gateOpen reports whether P(t) = cost opens the Θ gate away from
// heartbeats. The P(t) > 0 refinement keeps Θ=0 from flushing zero-cost
// (pre-deadline mail) packets every slot; see DESIGN.md §5.
func (e *ETrain) gateOpen(cost float64) bool {
	return !(cost < e.opts.Theta || cost <= 0)
}

// NextWake implements sched.Waker. Away from heartbeats Schedule selects
// exactly when the Θ gate is open at P(t). Every built-in profile is
// non-decreasing, and each step of P(t) — Duration.Seconds, division by
// the deadline, the profile's affine pieces, a sum in fixed order — is
// monotone in IEEE arithmetic, so once the gate opens it stays open. A
// bisection over q.CostAt therefore lands on the very slot stepping would
// reach, not an approximation of it. The channel-gated variant also
// consults the noisy estimate, which is not monotone, so it wakes every
// slot.
//
//etrain:hotpath
func (e *ETrain) NextWake(q *sched.Queues, now, stop, slot time.Duration) time.Duration {
	switch {
	case e.opts.ChannelGated:
		return now
	case q.Len() == 0:
		return stop
	}
	// The candidates are the slots now+i·slot, i in [0, n). The gate is
	// closed at every slot below lo and open at hi, n standing in for stop.
	n := (stop - now + slot - 1) / slot
	lo, hi := time.Duration(0), n
	for lo < hi {
		mid := lo + (hi-lo)/2
		if e.gateOpen(q.CostAt(now + mid*slot)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= n {
		return stop
	}
	return now + lo*slot
}

// fifoSelect releases up to limit packets in global arrival order.
func fifoSelect(q *sched.Queues, limit int) []workload.Packet {
	var selected []workload.Packet
	for len(selected) < limit {
		oldest, ok := q.Oldest()
		if !ok {
			break
		}
		p, ok := q.PopByID(oldest.App, oldest.ID)
		if !ok {
			break
		}
		selected = append(selected, p)
	}
	return selected
}

// cheapestSelect releases up to limit packets, smallest speculative cost
// first — the inverse of Eq. 9's preference.
func cheapestSelect(q *sched.Queues, nextSlot time.Duration, limit int) []workload.Packet {
	var selected []workload.Packet
	for len(selected) < limit && q.Len() > 0 {
		bestPhi := math.Inf(1)
		bestApp := ""
		bestID := 0
		for _, app := range q.AppsView() {
			for _, p := range q.View(app) {
				if phi := p.Cost(nextSlot); phi < bestPhi {
					bestPhi = phi
					bestApp = app
					bestID = p.ID
				}
			}
		}
		if bestApp == "" {
			break
		}
		p, ok := q.PopByID(bestApp, bestID)
		if !ok {
			break
		}
		selected = append(selected, p)
	}
	return selected
}

// greedySelect runs the subgradient heuristic of Eq. 9: up to limit
// iterations, each removing from the queues the packet with the largest
// marginal drift gain. nextSlot is t+1, the instant at which speculative
// costs φ_u(t) are evaluated.
func greedySelect(q *sched.Queues, nextSlot time.Duration, limit int) []workload.Packet {
	apps := q.AppsView()

	// P̄_i(t): speculative cost of the full queue, fixed for the slot.
	pbar := make(map[string]float64, len(apps))
	for _, app := range apps {
		pbar[app] = q.SpeculativeAppCostAt(app, nextSlot)
	}
	// Σ_{q ∈ Q*_i} φ_q(t): speculative cost already claimed per app.
	claimed := make(map[string]float64, len(apps))

	var selected []workload.Packet
	for len(selected) < limit && q.Len() > 0 {
		bestGain := math.Inf(-1)
		bestApp := ""
		bestID := 0
		bestPhi := 0.0
		for _, app := range apps {
			// View is allocation-free; the queue is not mutated until the
			// scan over every app completes below.
			for _, p := range q.View(app) {
				phi := p.Cost(nextSlot)
				gain := (pbar[app]-claimed[app])*phi - phi*phi/2
				if gain > bestGain {
					bestGain = gain
					bestApp = app
					bestID = p.ID
					bestPhi = phi
				}
			}
		}
		if bestApp == "" {
			break
		}
		p, ok := q.PopByID(bestApp, bestID)
		if !ok {
			break
		}
		claimed[bestApp] += bestPhi
		selected = append(selected, p)
	}
	return selected
}
