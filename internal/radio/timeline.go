package radio

import (
	"fmt"
	"sort"
	"time"
)

// TxKind classifies what a transmission carried.
type TxKind int

// Transmission kinds.
const (
	TxHeartbeat TxKind = iota + 1
	TxData
)

// String returns the kind name.
func (k TxKind) String() string {
	switch k {
	case TxHeartbeat:
		return "heartbeat"
	case TxData:
		return "data"
	default:
		return fmt.Sprintf("radio.TxKind(%d)", int(k))
	}
}

// Transmission is one completed radio transmission on the timeline.
type Transmission struct {
	// Start is the virtual instant the transmission began.
	Start time.Duration
	// TxTime is how long the transmission occupied the radio.
	TxTime time.Duration
	// Size is the payload in bytes.
	Size int64
	// Kind distinguishes heartbeats from data.
	Kind TxKind
	// App names the originating application.
	App string
}

// End returns the instant the transmission finished.
func (t Transmission) End() time.Duration { return t.Start + t.TxTime }

// Timeline is the chronologically ordered record of every transmission of a
// run. The simulator serializes transmissions (paper constraint (3)), so
// intervals never overlap.
type Timeline struct {
	txs []Transmission
}

// Reserve grows the timeline's capacity so at least n more transmissions
// can be appended without reallocating — the simulation engine sizes the
// timeline from its config before entering the slot loop.
func (tl *Timeline) Reserve(n int) {
	if n <= 0 {
		return
	}
	if free := cap(tl.txs) - len(tl.txs); free < n {
		grown := make([]Transmission, len(tl.txs), len(tl.txs)+n)
		copy(grown, tl.txs)
		tl.txs = grown
	}
}

// Append adds a transmission. Transmissions must be appended in start order
// and must not overlap the previous one; violations return an error because
// they indicate a scheduler bug.
//
//etrain:hotpath
func (tl *Timeline) Append(tx Transmission) error {
	if err := checkNext(len(tl.txs) > 0, tl.BusyUntil(), tx); err != nil {
		return err
	}
	tl.txs = append(tl.txs, tx)
	return nil
}

// checkNext reports whether tx may be appended to a timeline whose last
// transmission, if it has one (prev), ends at prevEnd: its transmission
// time must not be negative, and it must not start before prevEnd.
func checkNext(prev bool, prevEnd time.Duration, tx Transmission) error {
	if tx.TxTime < 0 {
		return fmt.Errorf("radio: negative transmission time %v", tx.TxTime)
	}
	if prev && tx.Start < prevEnd {
		return fmt.Errorf("radio: transmission at %v overlaps previous ending %v",
			tx.Start, prevEnd)
	}
	return nil
}

// Len returns the number of recorded transmissions.
func (tl *Timeline) Len() int { return len(tl.txs) }

// Transmissions returns a copy of the recorded transmissions.
func (tl *Timeline) Transmissions() []Transmission {
	out := make([]Transmission, len(tl.txs))
	copy(out, tl.txs)
	return out
}

// BusyUntil returns the end of the last transmission, i.e. the earliest
// instant the radio link is free again.
func (tl *Timeline) BusyUntil() time.Duration {
	if len(tl.txs) == 0 {
		return 0
	}
	return tl.txs[len(tl.txs)-1].End()
}

// Energy is the energy breakdown of a timeline in joules (above the IDLE
// baseline).
type Energy struct {
	// Transmit is the energy spent actively transmitting.
	Transmit float64
	// Tail is the energy wasted in post-transmission tails.
	Tail float64
	// HeartbeatShare is the portion (transmit + tail) attributed to
	// heartbeat transmissions.
	HeartbeatShare float64
	// DataShare is the portion attributed to data transmissions.
	DataShare float64
}

// Total returns transmit + tail energy.
func (e Energy) Total() float64 { return e.Transmit + e.Tail }

// AccountEnergy folds the timeline with the power model: each transmission
// pays its transmit energy plus the tail energy of the gap to the next
// transmission; the final transmission pays a full tail (horizon permitting).
//
// horizon bounds the final tail: a transmission ending at horizon−5s with a
// 17.5s tail only accrues 5s of it.
func (tl *Timeline) AccountEnergy(m PowerModel, horizon time.Duration) Energy {
	return accountEnergy(tl.txs, m, horizon)
}

// AccountEnergyModel is AccountEnergy over any radio generation: the same
// fold through the Model interface, used when a fleet sweeps 3G RRC
// against LTE/5G DRX.
func (tl *Timeline) AccountEnergyModel(m Model, horizon time.Duration) Energy {
	return accountEnergy(tl.txs, m, horizon)
}

// accountEnergy is the fold over a recorded timeline: every gap is in the
// slice, so it settles each transmission against the next one's start
// directly, with no pending state, and the last with lastGap — the terms
// EnergyFold adds, in the same order. The type parameter keeps the
// PowerModel path free of an interface conversion — BenchmarkAccountEnergy
// must stay allocation-free — while the Model instantiation serves the DRX
// models through the interface.
func accountEnergy[M Model](txs []Transmission, m M, horizon time.Duration) Energy {
	var e Energy
	for i := range txs {
		tx := &txs[i]
		var gap time.Duration
		if i+1 < len(txs) {
			gap = txs[i+1].Start - tx.End()
		} else {
			gap = lastGap(m, tx.End(), horizon)
		}
		e.add(tx.Kind, m.TransmitEnergy(tx.TxTime), m.TailEnergy(gap))
	}
	return e
}

// add books one transmission's transmit energy txE and the tail energy
// tailE of the gap that follows it: the accounting step both folds share,
// so they add every term in the same order.
//
//etrain:hotpath
func (e *Energy) add(kind TxKind, txE, tailE float64) {
	e.Transmit += txE
	e.Tail += tailE
	switch kind {
	case TxHeartbeat:
		e.HeartbeatShare += txE + tailE
	case TxData:
		e.DataShare += txE + tailE
	}
}

// lastGap is the tail a timeline's last transmission, ending at end, pays:
// up to horizon, and at most a full tail.
func lastGap[M Model](m M, end, horizon time.Duration) time.Duration {
	return min(horizon-end, m.TailTime())
}

// EnergyFold is the energy accounting of a timeline, streamed: it settles
// each transmission's transmit energy, and the tail energy of the gap the
// next transmission's start fixes, as that next transmission arrives, and
// Energy settles the last one with its tail cut at the horizon. It keeps
// no transmission record, so a run that needs only its energy builds no
// Timeline. It shares Energy.add and lastGap with Timeline.AccountEnergy and
// AccountEnergyModel and adds every term in the same order, so the two
// accountings agree bit for bit.
type EnergyFold[M Model] struct {
	m M
	e Energy // settled transmissions
	// The transmission still to settle, if pending: its end, transmit
	// time and kind.
	end, txTime time.Duration
	kind        TxKind
	pending     bool
}

// NewEnergyFold returns an empty fold over the radio model m.
func NewEnergyFold[M Model](m M) EnergyFold[M] {
	return EnergyFold[M]{m: m}
}

// Append adds the next transmission, with Timeline.Append's checks and
// errors: transmissions arrive in start order and must not overlap. It
// settles the pending transmission against tx's start and leaves tx
// pending.
//
//etrain:hotpath
func (f *EnergyFold[M]) Append(tx Transmission) error {
	if err := checkNext(f.pending, f.end, tx); err != nil {
		return err
	}
	if f.pending {
		f.e.add(f.kind, f.m.TransmitEnergy(f.txTime), f.m.TailEnergy(tx.Start-f.end))
	}
	f.end, f.txTime, f.kind, f.pending = tx.End(), tx.TxTime, tx.Kind, true
	return nil
}

// Energy returns the energy of every transmission appended so far, the
// last one paying the tail up to horizon and at most a full tail. It does
// not change the fold.
func (f *EnergyFold[M]) Energy(horizon time.Duration) Energy {
	e := f.e
	if f.pending {
		gap := lastGap(f.m, f.end, horizon)
		e.add(f.kind, f.m.TransmitEnergy(f.txTime), f.m.TailEnergy(gap))
	}
	return e
}

// AccountFastDormancy computes the energy of the same timeline under a
// fast-dormancy policy (related work, §VII): the tail is cut immediately
// after each transmission, but every transmission that starts from IDLE
// pays the promotion delay at DCH power. This is the ablation the paper
// argues against.
func (tl *Timeline) AccountFastDormancy(m PowerModel) Energy {
	var e Energy
	for _, tx := range tl.txs {
		txE := m.TransmitEnergy(tx.TxTime)
		promoE := m.PD * m.PromotionDelay.Seconds()
		e.Transmit += txE + promoE
		switch tx.Kind {
		case TxHeartbeat:
			e.HeartbeatShare += txE + promoE
		case TxData:
			e.DataShare += txE + promoE
		}
	}
	return e
}

// StateAt returns the radio state at virtual time at, derived from the
// timeline: transmitting while inside an interval, then walking the tail of
// the closest preceding transmission.
func (tl *Timeline) StateAt(m PowerModel, at time.Duration) State {
	idx := sort.Search(len(tl.txs), func(i int) bool {
		return tl.txs[i].Start > at
	})
	// idx is the first transmission starting after `at`; the candidate
	// containing or preceding `at` is idx−1.
	if idx == 0 {
		return StateIdle
	}
	prev := tl.txs[idx-1]
	if at < prev.End() {
		return StateTransmitting
	}
	return m.TailStateAt(at - prev.End())
}
