// Package sched defines the scheduling substrate shared by eTrain and the
// baseline strategies: per-app waiting queues (the Q_i of the paper), the
// slot context a strategy observes, and the Strategy interface the
// simulation engine drives.
package sched

import (
	"fmt"
	"time"

	"etrain/internal/heartbeat"
	"etrain/internal/workload"
)

// Queues is the set of per-cargo-app waiting queues Q_i. Iteration order is
// the registration order of apps, keeping every run deterministic.
//
// The queues are slices in registration order, and a running total makes
// Len O(1). A device has a handful of cargo apps, found by a scan of their
// names; past scanApps names a map takes over the lookup, so a session
// with many apps pays O(1) per name, not one scan each. Scheduling loops
// walk the apps by registration index (ViewAt, RemoveAt) and look up no
// name at all.
type Queues struct {
	order  []string
	q      [][]workload.Packet // q[i] is order[i]'s queue
	n      int                 // total queued packets
	byName map[string]int      // order's indices, once it outgrows scanApps
}

// scanApps is the most apps whose names Queues scans instead of hashing.
const scanApps = 8

// NewQueues returns an empty queue set.
func NewQueues() *Queues {
	return &Queues{}
}

// index returns app's registration index, or -1 if app never queued.
//
//etrain:hotpath
func (q *Queues) index(app string) int {
	if q.byName != nil {
		if i, ok := q.byName[app]; ok {
			return i
		}
		return -1
	}
	for i, name := range q.order {
		if name == app {
			return i
		}
	}
	return -1
}

// register appends app to the registration order and returns its index.
func (q *Queues) register(app string) int {
	i := len(q.order)
	q.order = append(q.order, app)
	q.q = append(q.q, nil)
	switch {
	case q.byName != nil:
		q.byName[app] = i
	case len(q.order) > scanApps:
		q.byName = make(map[string]int, 2*len(q.order))
		for j, name := range q.order {
			q.byName[name] = j
		}
	}
	return i
}

// Add enqueues a packet into its app's queue, registering the app on first
// use. Packets must be added in arrival order per app.
//
//etrain:hotpath
func (q *Queues) Add(p workload.Packet) {
	i := q.index(p.App)
	if i < 0 {
		i = q.register(p.App)
	}
	q.q[i] = append(q.q[i], p)
	q.n++
}

// Apps returns the registered app names in registration order.
func (q *Queues) Apps() []string {
	out := make([]string, len(q.order))
	copy(out, q.order)
	return out
}

// AppsView returns the registered app names in registration order without
// copying. Read-only, valid until the next Add that registers a new app —
// the allocation-free variant of Apps for per-slot scheduling loops.
func (q *Queues) AppsView() []string { return q.order }

// Len returns the total number of queued packets.
func (q *Queues) Len() int { return q.n }

// AppLen returns the number of packets queued for app.
func (q *Queues) AppLen(app string) int { return len(q.View(app)) }

// Packets returns a copy of app's queue in arrival order.
func (q *Queues) Packets(app string) []workload.Packet {
	src := q.View(app)
	out := make([]workload.Packet, len(src))
	copy(out, src)
	return out
}

// View returns app's queue in arrival order without copying. The returned
// slice is read-only and valid only until the next mutation of the queue
// set — it is the allocation-free variant of Packets for per-slot
// scheduling loops.
func (q *Queues) View(app string) []workload.Packet {
	if i := q.index(app); i >= 0 {
		return q.q[i]
	}
	return nil
}

// ViewAt is View for the app at registration index i, an index into
// AppsView: a scheduling loop that walks the apps in order reads each
// queue without looking its name up.
func (q *Queues) ViewAt(i int) []workload.Packet { return q.q[i] }

// Each calls fn for every queued packet in deterministic order (apps in
// registration order, packets in arrival order).
func (q *Queues) Each(fn func(p workload.Packet)) {
	for _, pkts := range q.q {
		for _, p := range pkts {
			fn(p)
		}
	}
}

// PopByID removes and returns the packet with the given ID from app's
// queue. ok is false if no such packet is queued. Removal compacts the
// queue in place, reusing its backing array — Packets hands out copies,
// so no caller observes the shift.
//
//etrain:hotpath
func (q *Queues) PopByID(app string, id int) (workload.Packet, bool) {
	if i := q.index(app); i >= 0 {
		for j, p := range q.q[i] {
			if p.ID == id {
				return q.pop(i, j), true
			}
		}
	}
	return workload.Packet{}, false
}

// PopHead removes and returns the head-of-line packet of app, compacting
// in place like PopByID so the queue's capacity is reused.
//
//etrain:hotpath
func (q *Queues) PopHead(app string) (workload.Packet, bool) {
	i := q.index(app)
	if i < 0 || len(q.q[i]) == 0 {
		return workload.Packet{}, false
	}
	return q.pop(i, 0), true
}

// pop removes and returns packet j of the queue of the app at
// registration index i, shifting the rest down in place.
func (q *Queues) pop(i, j int) workload.Packet {
	pkts := q.q[i]
	p := pkts[j]
	copy(pkts[j:], pkts[j+1:])
	pkts[len(pkts)-1] = workload.Packet{}
	q.q[i] = pkts[:len(pkts)-1]
	q.n--
	return p
}

// RemoveAt deletes from the queue of the app at registration index i
// every packet whose flag in drop is set; drop is indexed like ViewAt(i).
// The remaining packets keep their arrival order, compacted in place in
// one pass, so removing a whole selection costs what a single PopByID
// does.
//
//etrain:hotpath
func (q *Queues) RemoveAt(i int, drop []bool) {
	pkts := q.q[i]
	kept := 0
	for j, p := range pkts {
		if !drop[j] {
			pkts[kept] = p
			kept++
		}
	}
	clear(pkts[kept:])
	q.q[i] = pkts[:kept]
	q.n -= len(pkts) - kept
}

// CostAt returns P(t): the summed delay cost of every queued packet at
// instant now (paper Eq. 6).
//
//etrain:hotpath
func (q *Queues) CostAt(now time.Duration) float64 {
	total := 0.0
	for _, pkts := range q.q {
		for _, p := range pkts {
			total += p.Cost(now)
		}
	}
	return total
}

// AppCostAt returns P_i(t) for one app.
func (q *Queues) AppCostAt(app string, now time.Duration) float64 {
	total := 0.0
	for _, p := range q.View(app) {
		total += p.Cost(now)
	}
	return total
}

// SpeculativeAppCostAt returns P̄_i(t): the cost app's queue would carry at
// the start of the next slot if nothing were transmitted — the speculative
// cost Σ φ_u(t) of the paper's drift objective.
func (q *Queues) SpeculativeAppCostAt(app string, nextSlot time.Duration) float64 {
	return q.AppCostAt(app, nextSlot)
}

// Oldest returns the earliest-arrived packet across all queues: the first
// in iteration order among those that arrived earliest.
//
//etrain:hotpath
func (q *Queues) Oldest() (workload.Packet, bool) {
	var oldest workload.Packet
	found := false
	for _, pkts := range q.q {
		for _, p := range pkts {
			if !found || p.ArrivedAt < oldest.ArrivedAt {
				oldest = p
				found = true
			}
		}
	}
	return oldest, found
}

// SlotContext is everything a strategy may observe when deciding slot t.
type SlotContext struct {
	// Now is the slot's start instant.
	Now time.Duration
	// SlotLength is the strategy's decision period.
	SlotLength time.Duration
	// HeartbeatNow reports whether at least one train departs this slot
	// (t = t_s(h) for some h ∈ H).
	HeartbeatNow bool
	// Beats lists the train departures of this slot (the observations the
	// heartbeat monitor would deliver); empty when HeartbeatNow is false.
	Beats []heartbeat.Beat
	// Queues is the live waiting-queue set; strategies remove the packets
	// they select.
	Queues *Queues
	// EstimateBandwidth returns the strategy-visible channel estimate in
	// bytes/second. It is nil for channel-oblivious operation; eTrain
	// never calls it, PerES and eTime depend on it.
	EstimateBandwidth func() float64
	// MeanBandwidth is the long-run average bandwidth in bytes/second,
	// which channel-aware strategies use as their quality reference.
	MeanBandwidth float64
}

// Strategy decides, slot by slot, which queued packets to hand to the radio.
// A strategy keeps per-run state and is not safe for concurrent use.
type Strategy interface {
	// Name identifies the strategy in results and traces.
	Name() string
	// SlotLength returns the decision period (1 s for eTrain and PerES,
	// 60 s for eTime).
	SlotLength() time.Duration
	// Schedule removes from ctx.Queues the packets to transmit this slot
	// and returns them in transmission order (the Q*(t) of the paper).
	// The result is valid until the strategy's next Schedule call, which
	// may reuse its backing array; a caller that keeps it copies it.
	Schedule(ctx *SlotContext) []workload.Packet
}

// Waker is the optional interface of a strategy whose idle slots the
// simulation engine may skip. A strategy implements it only when Schedule
// is a pure function of the slot context that leaves the queues untouched
// whenever it selects nothing; the engine then never calls Schedule at the
// slots NextWake rules out.
type Waker interface {
	// NextWake returns the first slot start in [now, stop) — now,
	// now+slot, now+2·slot, … — at which Schedule could select any
	// packet, assuming q is unchanged and no heartbeat departs in
	// between. It returns stop if there is no such slot. Returning an
	// earlier slot than necessary is always safe; a later one is not.
	NextWake(q *Queues, now, stop, slot time.Duration) time.Duration
}

// ValidateSelection verifies a strategy's bookkeeping in tests: every
// returned packet must be distinct.
func ValidateSelection(selected []workload.Packet) error {
	seen := make(map[int]bool, len(selected))
	for _, p := range selected {
		if seen[p.ID] {
			return fmt.Errorf("sched: packet %d selected twice", p.ID)
		}
		seen[p.ID] = true
	}
	return nil
}
