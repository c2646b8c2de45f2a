// Package radio models a device's radio: its states, the high-power tail
// that follows every transmission, and the resulting energy accounting.
// Two generations implement Model: PowerModel, the paper's 3G RRC machine
// (IDLE / FACH / DCH) with LTE and WiFi parameter sets, and DRXModel, the
// LTE/5G connected-mode DRX machine. One EnergyFold serves every Model.
//
// PowerModel is exactly the paper's (§II-C, §III-A): after a transmission the
// radio lingers in DCH for δ_D, demotes to FACH for δ_F, then returns to
// IDLE. Using the IDLE power p_I as the zero baseline, the extra tail energy
// wasted in a gap Δ between consecutive transmissions is
//
//	E_tail(Δ) = 0                                  Δ ≤ 0
//	          = p̃_D·Δ                              0 < Δ ≤ δ_D
//	          = p̃_D·δ_D + p̃_F·(Δ−δ_D)              δ_D < Δ ≤ δ_D+δ_F
//	          = p̃_D·δ_D + p̃_F·δ_F                  otherwise
//
// with p̃_D = p_D − p_I and p̃_F = p_F − p_I.
package radio

import (
	"fmt"
	"time"
)

// State is an RRC radio state.
type State int

// RRC states. TransmittingDCH distinguishes active transmission from the
// DCH tail for power-trace rendering; both draw DCH power. The DRX
// states belong to the LTE/5G connected-mode machine (DRXModel): ACTIVE
// is continuous reception while the inactivity timer runs, DRX-on/
// DRX-sleep are the cDRX duty cycle, PSM is the post-release idle
// baseline.
const (
	StateIdle State = iota + 1
	StateFACH
	StateDCH
	StateTransmitting
	StateDRXActive
	StateDRXOn
	StateDRXSleep
	StatePSM
)

// String returns the conventional RRC state name.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "IDLE"
	case StateFACH:
		return "FACH"
	case StateDCH:
		return "DCH"
	case StateTransmitting:
		return "DCH(tx)"
	case StateDRXActive:
		return "ACTIVE"
	case StateDRXOn:
		return "DRX(on)"
	case StateDRXSleep:
		return "DRX(sleep)"
	case StatePSM:
		return "PSM"
	default:
		return fmt.Sprintf("radio.State(%d)", int(s))
	}
}

// MilliwattsPerWatt converts between the paper's milliwatt figures and the
// model's watt units. Every mW↔W crossing in the repository goes through
// this constant (or the FromMilliwatts/ToMilliwatts helpers) so the units
// analyzer can prove no magic 1000 slips into the energy arithmetic.
const MilliwattsPerWatt = 1000.0

// FromMilliwatts converts a paper-style milliwatt figure to watts.
func FromMilliwatts(mw float64) float64 { return mw / MilliwattsPerWatt }

// ToMilliwatts converts a model-side watt value to milliwatts for display
// alongside the paper's tables.
func ToMilliwatts(w float64) float64 { return w * MilliwattsPerWatt }

// PowerModel holds the power-state parameters of a device's cellular radio.
// Powers are expressed in watts above the IDLE baseline, energies in joules.
type PowerModel struct {
	// PD is p̃_D, the extra power drawn in DCH (and while transmitting),
	// in watts.
	PD float64
	// PF is p̃_F, the extra power drawn in FACH, in watts.
	PF float64
	// DeltaD is δ_D, the time spent in DCH after a transmission ends.
	DeltaD time.Duration
	// DeltaF is δ_F, the time spent in FACH before demoting to IDLE.
	DeltaF time.Duration
	// PromotionDelay is the IDLE→DCH promotion latency paid by a
	// transmission that starts from IDLE. The paper's energy formulation
	// sets it to zero; it exists for the fast-dormancy ablation, which
	// trades tail energy for promotion cost.
	PromotionDelay time.Duration
}

// GalaxyS43G returns the parameters the paper measured on a Samsung Galaxy
// S4 in a TD-SCDMA network with the screen off (§VI-A): p̃_D = 700 mW,
// p̃_F = 450 mW, δ_D = 10 s, δ_F = 7.5 s.
func GalaxyS43G() PowerModel {
	return PowerModel{
		PD:     FromMilliwatts(700),
		PF:     FromMilliwatts(450),
		DeltaD: 10 * time.Second,
		DeltaF: 7500 * time.Millisecond,
	}
}

// LTE returns an LTE radio mapped onto the two-phase tail structure, using
// the widely cited MobiSys'12 LTE measurements (≈1.06 W continuous-RX tail
// of ≈11.6 s before DRX): a hotter but comparably long tail, so heartbeats
// waste even more energy than on 3G. The short second phase models
// short-DRX before the idle long-DRX baseline.
func LTE() PowerModel {
	return PowerModel{
		PD:     FromMilliwatts(1060),
		PF:     FromMilliwatts(500),
		DeltaD: 10 * time.Second,
		DeltaF: 1600 * time.Millisecond,
	}
}

// WiFi returns a WiFi interface with PSM-style behaviour: a brief ≈240 ms
// high-power linger after each transmission, then back to power-save. Tail
// energy is two orders of magnitude below cellular, which is why tail
// batching schemes matter little on WiFi.
func WiFi() PowerModel {
	return PowerModel{
		PD:     FromMilliwatts(400),
		PF:     FromMilliwatts(100),
		DeltaD: 240 * time.Millisecond,
		DeltaF: 60 * time.Millisecond,
	}
}

// TailTime returns T_tail = δ_D + δ_F.
func (m PowerModel) TailTime() time.Duration { return m.DeltaD + m.DeltaF }

// FullTailEnergy returns the energy of one complete, uninterrupted tail:
// p̃_D·δ_D + p̃_F·δ_F. For the Galaxy S4 parameters this is 10.375 J,
// matching the paper's measured ≈10.91 J per heartbeat tail.
func (m PowerModel) FullTailEnergy() float64 {
	return m.PD*m.DeltaD.Seconds() + m.PF*m.DeltaF.Seconds()
}

// TailEnergy returns E_tail(Δ), the extra energy wasted in a gap of length
// gap between the end of one transmission and the start of the next.
func (m PowerModel) TailEnergy(gap time.Duration) float64 {
	switch {
	case gap <= 0:
		return 0
	case gap <= m.DeltaD:
		return m.PD * gap.Seconds()
	case gap <= m.DeltaD+m.DeltaF:
		return m.PD*m.DeltaD.Seconds() + m.PF*(gap-m.DeltaD).Seconds()
	default:
		return m.FullTailEnergy()
	}
}

// TransmitEnergy returns the energy spent actively transmitting for the
// given duration (the radio holds DCH power while transmitting).
func (m PowerModel) TransmitEnergy(txTime time.Duration) float64 {
	if txTime <= 0 {
		return 0
	}
	return m.PD * txTime.Seconds()
}

// TailStateAt returns the radio state at offset sinceTxEnd after the end of
// a transmission, assuming no other transmission intervenes.
func (m PowerModel) TailStateAt(sinceTxEnd time.Duration) State {
	switch {
	case sinceTxEnd < 0:
		return StateTransmitting
	case sinceTxEnd < m.DeltaD:
		return StateDCH
	case sinceTxEnd < m.DeltaD+m.DeltaF:
		return StateFACH
	default:
		return StateIdle
	}
}

// Power returns the extra power (above IDLE) drawn in the given state.
func (m PowerModel) Power(s State) float64 {
	switch s {
	case StateDCH, StateTransmitting:
		return m.PD
	case StateFACH:
		return m.PF
	default:
		return 0
	}
}

// Validate reports whether the model's parameters are usable.
func (m PowerModel) Validate() error {
	if m.PD <= 0 || m.PF < 0 {
		return fmt.Errorf("radio: non-positive powers PD=%v PF=%v", m.PD, m.PF)
	}
	if m.PF > m.PD {
		return fmt.Errorf("radio: FACH power %v exceeds DCH power %v", m.PF, m.PD)
	}
	if m.DeltaD < 0 || m.DeltaF < 0 {
		return fmt.Errorf("radio: negative tail durations δD=%v δF=%v", m.DeltaD, m.DeltaF)
	}
	if m.PromotionDelay < 0 {
		return fmt.Errorf("radio: negative promotion delay %v", m.PromotionDelay)
	}
	return nil
}
