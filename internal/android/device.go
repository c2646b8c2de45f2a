package android

import (
	"fmt"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/radio"
	"etrain/internal/simtime"
)

// Device models the phone: the event loop, the broadcast bus, and the
// cellular radio link that serializes all transmissions onto a timeline.
type Device struct {
	// Loop is the virtual-time event loop everything runs on.
	Loop *simtime.Loop
	// Bus is the broadcast system.
	Bus *Bus

	power     radio.PowerModel
	bw        *bandwidth.Trace
	timeline  *radio.Timeline
	machine   radio.Machine[radio.PowerModel]
	busyUntil time.Duration
}

// NewDevice builds a device with the given radio parameters and bandwidth
// trace.
func NewDevice(power radio.PowerModel, bw *bandwidth.Trace) (*Device, error) {
	if err := power.Validate(); err != nil {
		return nil, err
	}
	if bw == nil {
		return nil, fmt.Errorf("android: device needs a bandwidth trace")
	}
	loop := simtime.NewLoop()
	return &Device{
		Loop:     loop,
		Bus:      NewBus(loop),
		power:    power,
		bw:       bw,
		timeline: &radio.Timeline{},
		machine:  radio.NewMachine(power),
	}, nil
}

// Transmit serializes a transmission onto the radio link at the current
// virtual time (queueing behind any in-flight transmission) and returns its
// start instant.
func (d *Device) Transmit(size int64, kind radio.TxKind, app string) (time.Duration, error) {
	start := d.Loop.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	txTime := d.bw.TransmitTime(start, size)
	err := d.timeline.Append(radio.Transmission{
		Start: start, TxTime: txTime, Size: size, Kind: kind, App: app,
	})
	if err != nil {
		return 0, err
	}
	d.busyUntil = start + txTime
	// Drive the live RRC machine: promotion now, tail start when the
	// transmission completes.
	d.machine.BeginTransmission(start)
	end := d.busyUntil
	d.Loop.Schedule(end, func(time.Duration) { d.machine.EndTransmission(end) })
	return start, nil
}

// RadioState returns the live RRC state at the current virtual time.
func (d *Device) RadioState() radio.State {
	return d.machine.State(d.Loop.Now())
}

// OnRadioTransition subscribes to live RRC state changes.
func (d *Device) OnRadioTransition(fn func(radio.Transition)) {
	d.machine.Subscribe(fn)
}

// Timeline exposes the device's transmission record.
func (d *Device) Timeline() *radio.Timeline { return d.timeline }

// Power exposes the device's radio power model.
func (d *Device) Power() radio.PowerModel { return d.power }

// Run executes the device's event loop until the horizon.
func (d *Device) Run(horizon time.Duration) error {
	return d.Loop.Run(horizon)
}

// Energy accounts the device's total radio energy over the run.
func (d *Device) Energy(horizon time.Duration) radio.Energy {
	return d.timeline.AccountEnergy(d.power, horizon+d.power.TailTime())
}
