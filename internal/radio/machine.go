package radio

import "time"

// Transition is one radio state change observed by a Machine listener.
type Transition struct {
	// At is the instant of the change.
	At time.Duration
	// From and To are the states before and after.
	From, To State
}

// Machine is the live radio state machine of §II-C over any radio
// generation. Fed transmission starts and ends as they happen, it walks
// the model's tail in virtual time — IDLE → DCH(tx) → DCH → FACH → IDLE
// for the paper's 3G radio, PSM → tx → ACTIVE → short cDRX → long cDRX →
// PSM for LTE/NR DRX — and notifies listeners of every transition at its
// true instant: the component a live power monitor or a fast-dormancy
// policy would hook, where Timeline.StateAt derives states after the
// fact. Outside a transmission its state is the model's TailStateAt
// relative to the last transmission end.
//
// The model is a type parameter, not an interface field, so a machine
// over a concrete model holds it unboxed and allocates nothing.
type Machine[M Model] struct {
	model   M
	state   State
	stateAt time.Duration
	// txEnd anchors the tail: every demotion boundary is an offset from
	// the end of the last transmission.
	txEnd     time.Duration
	listeners []func(Transition)
	// transmitting tracks nesting so overlapping notifications (which the
	// serialized link never produces, but defensive) do not corrupt state.
	transmitting int
	transitions  int
}

// NewMachine returns a machine at the model's idle baseline at time zero.
// It starts as if a transmission had ended a full tail earlier, so the
// walk finds no boundary ahead until the first transmission. Like
// NewEnergyFold it returns a value; keep it in a variable or field, whose
// address the methods take.
func NewMachine[M Model](model M) Machine[M] {
	tail := model.TailTime()
	return Machine[M]{model: model, state: model.TailStateAt(tail), txEnd: -tail}
}

// Subscribe registers a listener invoked synchronously on every transition,
// in subscription order.
func (m *Machine[M]) Subscribe(fn func(Transition)) {
	m.listeners = append(m.listeners, fn)
}

// State returns the machine's state at the given instant, accounting for
// tail demotions that elapsed since the last event.
func (m *Machine[M]) State(now time.Duration) State {
	m.advance(now)
	return m.state
}

// Transitions reports how many state changes have occurred.
func (m *Machine[M]) Transitions() int { return m.transitions }

// Power returns the instantaneous extra power at now.
func (m *Machine[M]) Power(now time.Duration) float64 {
	return m.model.Power(m.State(now))
}

// BeginTransmission moves the machine to the transmitting state.
func (m *Machine[M]) BeginTransmission(now time.Duration) {
	m.advance(now)
	m.transmitting++
	if m.state != StateTransmitting {
		m.setState(now, StateTransmitting)
	}
}

// EndTransmission marks a transmission's end; the tail starts now, in the
// model's state at offset zero (a zero-length first phase is skipped).
func (m *Machine[M]) EndTransmission(now time.Duration) {
	m.advance(now)
	if m.transmitting > 0 {
		m.transmitting--
	}
	if m.transmitting == 0 && m.state == StateTransmitting {
		m.txEnd = now
		m.setState(now, m.model.TailStateAt(0))
	}
}

// advance applies the tail demotions that elapsed between the last event
// and now, emitting the corresponding transitions at their true instants.
// A boundary that does not change the state (the seam between two DRX
// cycles whose on-duration fills the cycle) advances the cursor silently.
func (m *Machine[M]) advance(now time.Duration) {
	if m.transmitting > 0 || now <= m.stateAt {
		return
	}
	for off := m.stateAt - m.txEnd; ; {
		next := m.model.nextTailBoundary(off)
		if next <= off {
			return // the tail is exhausted
		}
		at := m.txEnd + next
		if now < at {
			return
		}
		if st := m.model.TailStateAt(next); st != m.state {
			m.setState(at, st)
		} else {
			m.stateAt = at
		}
		off = next
	}
}

func (m *Machine[M]) setState(at time.Duration, to State) {
	tr := Transition{At: at, From: m.state, To: to}
	m.state = to
	m.stateAt = at
	m.transitions++
	for _, fn := range m.listeners {
		fn(tr)
	}
}
