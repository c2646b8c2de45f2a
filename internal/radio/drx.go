package radio

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Model is the radio-generation abstraction: the energy/state interface
// the simulator consumes, satisfied by both the paper's 3G RRC PowerModel
// and the LTE/5G DRXModel. Powers are watts above the generation's idle
// baseline (RRC-IDLE for 3G, RRC-idle/PSM for LTE/NR), energies joules.
type Model interface {
	// Validate reports whether the model's parameters are usable.
	Validate() error
	// TailTime is how long after a transmission the radio keeps drawing
	// extra power before reaching the idle baseline.
	TailTime() time.Duration
	// FullTailEnergy is the energy of one complete, uninterrupted tail.
	FullTailEnergy() float64
	// TailEnergy is the extra energy spent in a gap of the given length
	// between the end of one transmission and the start of the next.
	TailEnergy(gap time.Duration) float64
	// TransmitEnergy is the energy of actively transmitting for txTime.
	TransmitEnergy(txTime time.Duration) float64
	// TailStateAt is the radio state at the given offset after a
	// transmission ends, assuming no other transmission intervenes.
	TailStateAt(sinceTxEnd time.Duration) State
	// Power is the extra power drawn in the given state.
	Power(s State) float64
}

var (
	_ Model = PowerModel{}
	_ Model = DRXModel{}
)

// DRXModel is the LTE/5G connected-mode DRX machine: after a transmission
// the UE holds continuous reception until the inactivity timer expires,
// then duty-cycles through a burst of short DRX cycles, then long DRX
// cycles, until the network releases the RRC connection and the UE drops
// to its idle/PSM baseline (the model's zero).
//
//	power
//	 PTx ┤██ tx
//	PCont┤  ████ inactivity timer (continuous RX)
//	 POn ┤      █  █   █    █    on-durations
//	PSleep┤      ▄▄ ▄▄▄ ▄▄▄▄ ▄▄▄▄ short cycles → long cycles
//	   0 ┤                          ─── RRC release → PSM
type DRXModel struct {
	// PTx is the extra power while transmitting, in watts.
	PTx float64
	// PCont is the extra power of continuous reception while the
	// inactivity timer runs, in watts.
	PCont float64
	// POn is the extra power of a DRX on-duration, in watts.
	POn float64
	// PSleep is the extra power of connected-mode DRX sleep (light
	// sleep: RF off, RRC context live), in watts.
	PSleep float64
	// InactivityTimer is how long continuous reception lasts after the
	// last transmission before DRX cycling starts.
	InactivityTimer time.Duration
	// ShortCycle is the short DRX cycle length; ShortCycles is how many
	// short cycles run before falling back to the long cycle.
	ShortCycle  time.Duration
	ShortCycles int
	// LongCycle is the long DRX cycle length, used until RRC release.
	LongCycle time.Duration
	// OnDuration is the awake span at the start of every DRX cycle.
	OnDuration time.Duration
	// ReleaseAfter is the RRC release timer: the offset after the last
	// transmission at which the connection drops to the idle baseline.
	ReleaseAfter time.Duration
}

// shortSpan returns the total length of the short-cycle burst.
func (m DRXModel) shortSpan() time.Duration {
	return time.Duration(m.ShortCycles) * m.ShortCycle
}

// Validate reports whether the model's parameters are usable. The power
// ordering PTx ≥ PCont ≥ POn ≥ PSleep ≥ 0 is what makes tail energy
// monotone in the inactivity timer (property-tested): lengthening the
// timer replaces duty-cycled time with continuous reception, which can
// only cost more.
func (m DRXModel) Validate() error {
	if m.PTx <= 0 {
		return fmt.Errorf("radio: non-positive DRX transmit power %v", m.PTx)
	}
	if !(m.PTx >= m.PCont && m.PCont >= m.POn && m.POn >= m.PSleep && m.PSleep >= 0) {
		return fmt.Errorf("radio: DRX powers must satisfy PTx ≥ PCont ≥ POn ≥ PSleep ≥ 0 (got %v ≥ %v ≥ %v ≥ %v)",
			m.PTx, m.PCont, m.POn, m.PSleep)
	}
	if m.InactivityTimer < 0 {
		return fmt.Errorf("radio: negative DRX inactivity timer %v", m.InactivityTimer)
	}
	if m.ShortCycles < 0 {
		return fmt.Errorf("radio: negative DRX short-cycle count %d", m.ShortCycles)
	}
	if m.ShortCycles > 0 && m.ShortCycle <= 0 {
		return fmt.Errorf("radio: non-positive DRX short cycle %v with %d short cycles", m.ShortCycle, m.ShortCycles)
	}
	if m.LongCycle <= 0 {
		return fmt.Errorf("radio: non-positive DRX long cycle %v", m.LongCycle)
	}
	if m.OnDuration <= 0 {
		return fmt.Errorf("radio: non-positive DRX on-duration %v", m.OnDuration)
	}
	if m.OnDuration > m.LongCycle || (m.ShortCycles > 0 && m.OnDuration > m.ShortCycle) {
		return fmt.Errorf("radio: DRX on-duration %v exceeds a cycle (short %v, long %v)",
			m.OnDuration, m.ShortCycle, m.LongCycle)
	}
	if m.ReleaseAfter < m.InactivityTimer+m.shortSpan() {
		return fmt.Errorf("radio: DRX release timer %v shorter than inactivity+short span %v",
			m.ReleaseAfter, m.InactivityTimer+m.shortSpan())
	}
	return nil
}

// TailTime returns the RRC release timer: past it the radio sits at the
// idle baseline.
func (m DRXModel) TailTime() time.Duration { return m.ReleaseAfter }

// dutyEnergy integrates the duty-cycled power over a span of cycling with
// the given cycle length, starting at a cycle boundary.
func (m DRXModel) dutyEnergy(span, cycle time.Duration) float64 {
	if span <= 0 || cycle <= 0 {
		return 0
	}
	perCycle := m.POn*m.OnDuration.Seconds() + m.PSleep*(cycle-m.OnDuration).Seconds()
	full := span / cycle
	e := float64(full) * perCycle
	rem := span - full*cycle
	on := rem
	if on > m.OnDuration {
		on = m.OnDuration
	}
	e += m.POn*on.Seconds() + m.PSleep*(rem-on).Seconds()
	return e
}

// TailEnergy returns the extra energy spent in a gap between the end of
// one transmission and the start of the next: continuous reception while
// the inactivity timer runs, then short-cycle DRX, then long-cycle DRX,
// cut off at the RRC release timer.
func (m DRXModel) TailEnergy(gap time.Duration) float64 {
	if gap <= 0 {
		return 0
	}
	if gap > m.ReleaseAfter {
		gap = m.ReleaseAfter
	}
	cont := gap
	if cont > m.InactivityTimer {
		cont = m.InactivityTimer
	}
	e := m.PCont * cont.Seconds()
	if gap <= m.InactivityTimer {
		return e
	}
	short := gap - m.InactivityTimer
	if span := m.shortSpan(); short > span {
		short = span
	}
	e += m.dutyEnergy(short, m.ShortCycle)
	long := gap - m.InactivityTimer - m.shortSpan()
	if long > 0 {
		e += m.dutyEnergy(long, m.LongCycle)
	}
	return e
}

// FullTailEnergy returns the energy of one complete tail, through RRC
// release.
func (m DRXModel) FullTailEnergy() float64 { return m.TailEnergy(m.ReleaseAfter) }

// TransmitEnergy returns the energy of actively transmitting for txTime.
func (m DRXModel) TransmitEnergy(txTime time.Duration) float64 {
	if txTime <= 0 {
		return 0
	}
	return m.PTx * txTime.Seconds()
}

// TailStateAt returns the radio state at the given offset after a
// transmission ends, assuming no other transmission intervenes.
func (m DRXModel) TailStateAt(sinceTxEnd time.Duration) State {
	t := sinceTxEnd
	switch {
	case t < 0:
		return StateTransmitting
	case t < m.InactivityTimer:
		return StateDRXActive
	case t >= m.ReleaseAfter:
		return StatePSM
	}
	shortEnd := m.InactivityTimer + m.shortSpan()
	var inCycle time.Duration
	if t < shortEnd {
		inCycle = (t - m.InactivityTimer) % m.ShortCycle
	} else {
		inCycle = (t - shortEnd) % m.LongCycle
	}
	if inCycle < m.OnDuration {
		return StateDRXOn
	}
	return StateDRXSleep
}

// Power returns the extra power drawn in the given state.
func (m DRXModel) Power(s State) float64 {
	switch s {
	case StateTransmitting:
		return m.PTx
	case StateDRXActive:
		return m.PCont
	case StateDRXOn:
		return m.POn
	case StateDRXSleep:
		return m.PSleep
	default:
		return 0
	}
}

// LTEDRX returns an LTE cDRX model assembled from the MobiSys'12 LTE
// power measurements (≈1.2 W transmit, ≈1.06 W continuous reception,
// ≈1 W on-duration, ≈0.4 W light sleep) with 3GPP-typical timers: 200 ms
// inactivity, 16 short cycles of 80 ms (20 ms on), 320 ms long cycles,
// RRC release ≈11.5 s after the last transmission. One full tail costs
// ≈5.3 J — about half the Galaxy S4's 3G tail, which is the
// cross-generation comparison fig-diurnal quantifies.
func LTEDRX() DRXModel {
	return DRXModel{
		PTx:             FromMilliwatts(1210),
		PCont:           FromMilliwatts(1060),
		POn:             FromMilliwatts(1000),
		PSleep:          FromMilliwatts(400),
		InactivityTimer: 200 * time.Millisecond,
		ShortCycle:      80 * time.Millisecond,
		ShortCycles:     16,
		LongCycle:       320 * time.Millisecond,
		OnDuration:      20 * time.Millisecond,
		ReleaseAfter:    11480 * time.Millisecond,
	}
}

// NR5GDRX returns a 5G NR cDRX model: hotter peaks than LTE but much
// deeper sleep and a shorter release timer, so one full tail costs ≈2 J.
func NR5GDRX() DRXModel {
	return DRXModel{
		PTx:             FromMilliwatts(1350),
		PCont:           FromMilliwatts(1200),
		POn:             FromMilliwatts(1100),
		PSleep:          FromMilliwatts(250),
		InactivityTimer: 100 * time.Millisecond,
		ShortCycle:      40 * time.Millisecond,
		ShortCycles:     8,
		LongCycle:       160 * time.Millisecond,
		OnDuration:      8 * time.Millisecond,
		ReleaseAfter:    6420 * time.Millisecond,
	}
}

// modelsByName maps radio-generation names (as used by -radio flags and
// scenario documents) to model constructors; aliases share an entry.
var modelsByName = []struct {
	name    string
	aliases []string
	build   func() Model
}{
	{"3g", []string{"3g-rrc"}, func() Model { return GalaxyS43G() }},
	{"lte", nil, func() Model { return LTE() }},
	{"lte-drx", nil, func() Model { return LTEDRX() }},
	{"nr-drx", []string{"5g-drx"}, func() Model { return NR5GDRX() }},
	{"wifi", nil, func() Model { return WiFi() }},
}

// ModelByName resolves a radio-generation name ("3g", "lte", "lte-drx",
// "nr-drx", "wifi", plus aliases "3g-rrc" and "5g-drx") to its model.
func ModelByName(name string) (Model, error) {
	for _, e := range modelsByName {
		if e.name == name {
			return e.build(), nil
		}
		for _, a := range e.aliases {
			if a == name {
				return e.build(), nil
			}
		}
	}
	return nil, fmt.Errorf("radio: unknown model %q (want %s)", name, strings.Join(ModelNames(), ", "))
}

// ModelNames lists the canonical radio-model names in sorted order.
func ModelNames() []string {
	names := make([]string, len(modelsByName))
	for i, e := range modelsByName {
		names[i] = e.name
	}
	sort.Strings(names)
	return names
}
