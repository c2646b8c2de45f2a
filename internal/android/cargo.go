package android

import (
	"time"

	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/workload"
)

// TransmissionRequest is the metadata a cargo app submits to eTrain
// (paper §V-4): packet size, arrival, and the app's delay-cost profile from
// its registration.
type TransmissionRequest struct {
	// App names the submitting cargo app.
	App string
	// PacketID is the app-local packet identifier.
	PacketID int
	// Size is the payload in bytes.
	Size int64
}

// TransmitDecision is eTrain's broadcast answer: the packets the named app
// must transmit now.
type TransmitDecision struct {
	// App names the cargo app being instructed.
	App string
	// PacketIDs lists the packets to transmit, in order.
	PacketIDs []int
}

// DeliveredPacket records a cargo transmission as observed by the app.
type DeliveredPacket struct {
	// PacketID identifies the packet.
	PacketID int
	// ArrivedAt is when the app submitted it.
	ArrivedAt time.Duration
	// StartedAt is when its transmission began.
	StartedAt time.Duration
	// Violated reports a missed deadline.
	Violated bool
}

// CargoApp is the client-side library a cargo app links against: it submits
// requests through the broadcast module and transmits when instructed.
// Developers "only need to add some predefined subclasses of
// BroadcastReceiver provided by eTrain" — this type is that subclass.
type CargoApp struct {
	device    *Device
	name      string
	profile   profile.Profile
	pending   map[int]workload.Packet
	delivered []DeliveredPacket
	nextID    int
}

// NewCargoApp registers a cargo app with eTrain's service on the device.
// The profile becomes part of the app's registration (the "cargo app's
// profile, obtained when the cargo app registers for eTrain's services").
func NewCargoApp(device *Device, name string, prof profile.Profile) *CargoApp {
	app := &CargoApp{
		device:  device,
		name:    name,
		profile: prof,
		pending: make(map[int]workload.Packet),
	}
	device.Bus.Register(ActionTransmitDecision, app.onDecision)
	device.Bus.Broadcast(Intent{
		Action:  ActionRegisterCargo,
		Payload: CargoRegistration{App: name, Profile: prof},
	})
	return app
}

// Name returns the app's name.
func (c *CargoApp) Name() string { return c.name }

// Submit hands eTrain a new data packet of the given size at the current
// virtual time and returns its packet ID.
func (c *CargoApp) Submit(size int64) int {
	id := c.nextID
	c.nextID++
	c.pending[id] = workload.Packet{
		ID:        id,
		App:       c.name,
		ArrivedAt: c.device.Loop.Now(),
		Size:      size,
		Profile:   c.profile,
	}
	c.device.Bus.Broadcast(Intent{
		Action:  ActionSubmitRequest,
		Payload: TransmissionRequest{App: c.name, PacketID: id, Size: size},
	})
	return id
}

// ScheduleSubmit arranges for Submit(size) to run at the given virtual
// instant (used to replay traces).
func (c *CargoApp) ScheduleSubmit(at time.Duration, size int64) {
	c.device.Loop.Schedule(at, func(time.Duration) { c.Submit(size) })
}

func (c *CargoApp) onDecision(now time.Duration, intent Intent) {
	decision, ok := intent.Payload.(TransmitDecision)
	if !ok || decision.App != c.name {
		return
	}
	for _, id := range decision.PacketIDs {
		pkt, ok := c.pending[id]
		if !ok {
			continue
		}
		delete(c.pending, id)
		start, err := c.device.Transmit(pkt.Size, radio.TxData, c.name)
		if err != nil {
			continue
		}
		c.delivered = append(c.delivered, DeliveredPacket{
			PacketID:  id,
			ArrivedAt: pkt.ArrivedAt,
			StartedAt: start,
			Violated:  pkt.DeadlineViolated(start),
		})
	}
}

// Delivered returns a copy of the app's delivery log.
func (c *CargoApp) Delivered() []DeliveredPacket {
	out := make([]DeliveredPacket, len(c.delivered))
	copy(out, c.delivered)
	return out
}

// PendingCount reports packets submitted but not yet transmitted.
func (c *CargoApp) PendingCount() int { return len(c.pending) }
