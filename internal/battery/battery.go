// Package battery converts radio energy into the battery-impact figures
// the paper quotes: §II-D computes that one app's heartbeats alone burn
// "at least 6% of battery capacity" on a 1700 mAh, 3.7 V battery over a
// 10-hour standby.
package battery

import "time"

// Unit-conversion constants, named so the units analyzer can prove every
// scale crossing in the capacity arithmetic is intentional.
const (
	// milliampHoursPerAmpHour converts the rated mAh figure to amp-hours.
	milliampHoursPerAmpHour = 1000.0
	// secondsPerHour converts amp-hours to coulombs (A·s).
	secondsPerHour = 3600.0
)

// Battery describes a phone battery.
type Battery struct {
	// CapacityMAh is the rated capacity in milliamp-hours.
	CapacityMAh float64
	// Voltage is the nominal cell voltage.
	Voltage float64
}

// GalaxyS4 returns the paper's reference battery: 1700 mAh at 3.7 V
// (§II-D). (The retail S4 shipped with 2600 mAh; the paper's figure is
// used for comparability.)
func GalaxyS4() Battery {
	return Battery{CapacityMAh: 1700, Voltage: 3.7}
}

// CapacityJoules returns the battery's total energy: mAh → C × V.
func (b Battery) CapacityJoules() float64 {
	return b.CapacityMAh / milliampHoursPerAmpHour * secondsPerHour * b.Voltage
}

// DrainFraction returns the fraction of capacity a given energy represents.
func (b Battery) DrainFraction(joules float64) float64 {
	capacity := b.CapacityJoules()
	if capacity <= 0 {
		return 0
	}
	return joules / capacity
}

// StandbyLoss scales an energy measured over `measured` to the drain
// fraction over a standby period — the §II-D computation ("if the battery
// life is 10 hours, the smartphone will spend at least 6% of its battery
// capacity on sending heartbeats of only one app").
func (b Battery) StandbyLoss(joules float64, measured, standby time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	scaled := joules * standby.Seconds() / measured.Seconds()
	return b.DrainFraction(scaled)
}
