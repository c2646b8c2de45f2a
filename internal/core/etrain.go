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

// ETrain is the online transmission strategy of the paper. It is not safe
// for concurrent use: Schedule reuses the scratch below. Besides its
// options the scratch is its only state, so one ETrain serves any number
// of runs in turn.
type ETrain struct {
	opts Options

	// Scratch reused by every Schedule call, so a slot allocates nothing
	// once it has grown: sel is the returned selection (valid until the
	// next call, the sched.Strategy contract). greedySelect keeps φ_u(t)
	// and a taken flag per queued packet (apps in registration order,
	// packets in arrival order) and, per app, P̄_i(t), the claimed cost
	// Σ_{q∈Q*_i} φ_q(t) and the end of the app's packets in phi.
	sel     []workload.Packet
	phi     []float64
	taken   []bool
	pbar    []float64
	claimed []float64
	ends    []int
}

var (
	_ sched.Strategy = (*ETrain)(nil)
	_ sched.Waker    = (*ETrain)(nil)
)

// New returns an eTrain strategy with the given options.
func New(opts Options) (*ETrain, error) {
	e := new(ETrain)
	if err := e.Reset(opts); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset re-options e in place, keeping its scratch, so a strategy that
// serves runs under different options in turn, such as a pooled server
// session's or a fleet shard's, need not grow a new one. It leaves e as it
// was when opts are invalid.
func (e *ETrain) Reset(opts Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if opts.Slot == 0 {
		opts.Slot = DefaultSlot
	}
	if opts.Selection == 0 {
		opts.Selection = SelectEq9
	}
	e.opts = opts
	return nil
}

// Name implements sched.Strategy.
func (e *ETrain) Name() string { return "etrain" }

// SlotLength implements sched.Strategy.
func (e *ETrain) SlotLength() time.Duration { return e.opts.Slot }

// Schedule implements Algorithm 1 for one slot.
func (e *ETrain) Schedule(ctx *sched.SlotContext) []workload.Packet {
	q := ctx.Queues
	if q.Len() == 0 {
		return nil
	}

	// Lines 1 and 3: transmit only on a train departure or once P(t)
	// (Eq. 6) passes the cost bound. A departure needs no P(t), and
	// neither does a slot the engine woke on: NextWake found the gate open
	// there over these very queues. The channel-gated NextWake names every
	// slot without probing, so that variant probes here.
	woken := ctx.Woken && !e.opts.ChannelGated
	if !ctx.HeartbeatNow && !woken && !e.gateAt(q, ctx.Now) {
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
		e.sel = fifoSelect(e.sel[:0], q, limit)
	case SelectCheapest:
		e.sel = cheapestSelect(e.sel[:0], q, ctx.Now+ctx.SlotLength, limit)
	default:
		e.sel = e.greedySelect(q, ctx.Now+ctx.SlotLength, limit)
	}
	if len(e.sel) == 0 {
		return nil
	}
	return e.sel
}

// gateOpen reports whether P(t) = cost opens the Θ gate away from
// heartbeats. The P(t) > 0 refinement keeps Θ=0 from flushing zero-cost
// (pre-deadline mail) packets every slot; see DESIGN.md §5.
func (e *ETrain) gateOpen(cost float64) bool {
	return !(cost < e.opts.Theta || cost <= 0)
}

// gateAt reports gateOpen(q.CostAt(now)) without always summing every
// packet: it adds the costs in CostAt's order and stops at the first
// prefix that opens the gate. Costs are non-negative, and IEEE addition
// of a non-negative term never lowers a sum, so once a prefix reaches Θ
// (and 0) the full sum does too; a NaN prefix opens the gate, and the sum
// stays NaN to the end. A prefix that never opens it ends as the full sum.
//
//etrain:hotpath
func (e *ETrain) gateAt(q *sched.Queues, now time.Duration) bool {
	total := 0.0
	for a := range q.AppsView() {
		for _, p := range q.ViewAt(a) {
			total += p.Cost(now)
			if e.gateOpen(total) {
				return true
			}
		}
	}
	return false
}

// NextWake implements sched.Waker. Away from heartbeats Schedule selects
// exactly when the Θ gate is open at P(t). Every built-in profile is
// non-decreasing, and each step of P(t) — Duration.Seconds, division by
// the deadline, the profile's pieces, a sum in fixed order — is monotone
// in IEEE arithmetic, so once the gate opens it stays open. A bisection
// over gateAt therefore lands on the very slot stepping would reach, not
// an approximation of it. Most wakes find the gate still shut at the last
// candidate slot, which by the same argument settles them with one probe;
// the rest bisect below it, and Schedule then trusts SlotContext.Woken
// instead of probing the slot again. The channel-gated variant also
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
	// The candidates are the slots now+i·slot, i in [0, n).
	n := (stop - now + slot - 1) / slot
	if n <= 0 || !e.gateAt(q, now+(n-1)*slot) {
		return stop
	}
	// The gate is closed at every slot below lo and open at hi.
	lo, hi := time.Duration(0), n-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if e.gateAt(q, now+mid*slot) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return now + lo*slot
}

// fifoSelect appends to sel up to limit packets in global arrival order.
func fifoSelect(sel []workload.Packet, q *sched.Queues, limit int) []workload.Packet {
	for len(sel) < limit {
		oldest, ok := q.Oldest()
		if !ok {
			break
		}
		p, ok := q.PopByID(oldest.App, oldest.ID)
		if !ok {
			break
		}
		sel = append(sel, p)
	}
	return sel
}

// cheapestSelect appends to sel up to limit packets, smallest speculative
// cost first — the inverse of Eq. 9's preference.
func cheapestSelect(sel []workload.Packet, q *sched.Queues, nextSlot time.Duration, limit int) []workload.Packet {
	for len(sel) < limit && q.Len() > 0 {
		bestPhi := math.Inf(1)
		found := false
		var best workload.Packet
		for a := range q.AppsView() {
			for _, p := range q.ViewAt(a) {
				if phi := p.Cost(nextSlot); phi < bestPhi {
					bestPhi = phi
					best = p
					found = true
				}
			}
		}
		if !found {
			break
		}
		p, ok := q.PopByID(best.App, best.ID)
		if !ok {
			break
		}
		sel = append(sel, p)
	}
	return sel
}

// greedySelect runs the subgradient heuristic of Eq. 9: up to limit
// iterations, each taking the packet with the largest marginal drift gain,
// and returns the taken packets, removed from the queues, in e.sel.
// nextSlot is t+1, the instant at which speculative costs φ_u(t) are
// evaluated.
//
// φ_u(t) is fixed for the slot, so it is evaluated once per packet, and
// P̄_i(t) is the in-order sum of the same values, bit-identical to
// SpeculativeAppCostAt. A pick only marks its packet taken. The scan skips
// taken packets but keeps the queues' order and the strict >, so every
// pick and tie-break is the one a greedy that popped each pick at once
// would make; the taken packets leave the queues after the last pick.
//
//etrain:hotpath
func (e *ETrain) greedySelect(q *sched.Queues, nextSlot time.Duration, limit int) []workload.Packet {
	apps := q.AppsView()
	n := q.Len()
	e.phi = e.phi[:0]
	e.pbar = e.pbar[:0]
	e.ends = e.ends[:0]
	for a := range apps {
		total := 0.0
		for _, p := range q.ViewAt(a) {
			phi := p.Cost(nextSlot)
			e.phi = append(e.phi, phi)
			total += phi
		}
		e.pbar = append(e.pbar, total)
		e.ends = append(e.ends, len(e.phi))
	}
	e.taken = append(e.taken[:0], make([]bool, n)...)
	e.claimed = append(e.claimed[:0], make([]float64, len(apps))...)

	sel := e.sel[:0]
	for len(sel) < limit && len(sel) < n {
		bestGain := math.Inf(-1)
		best, bestApp := -1, 0
		k := 0
		for a, end := range e.ends {
			room := e.pbar[a] - e.claimed[a]
			for ; k < end; k++ {
				if e.taken[k] {
					continue
				}
				phi := e.phi[k]
				if gain := room*phi - phi*phi/2; gain > bestGain {
					bestGain = gain
					best, bestApp = k, a
				}
			}
		}
		if best < 0 {
			break
		}
		e.taken[best] = true
		e.claimed[bestApp] += e.phi[best]
		start := 0
		if bestApp > 0 {
			start = e.ends[bestApp-1]
		}
		sel = append(sel, q.ViewAt(bestApp)[best-start])
	}
	if len(sel) > 0 {
		start := 0
		for a, end := range e.ends {
			q.RemoveAt(a, e.taken[start:end])
			start = end
		}
	}
	return sel
}
