// Package android simulates the slice of the Android platform eTrain runs
// on (paper §V): the Broadcast mechanism used for one-to-many process
// communication, AlarmManager-driven periodic work, the Xposed-style hook
// that observes train apps' heartbeat sends, and the eTrain system service
// itself (Heartbeat Monitor, Scheduler, Broadcast modules).
//
// Everything executes deterministically on a virtual-time event loop
// (internal/simtime); train and cargo apps interact only through the
// broadcast bus, exactly as in the paper's architecture where trains and
// cargoes never talk to each other directly.
package android

import (
	"time"

	"etrain/internal/simtime"
)

// Intent is a broadcast message: an action name plus an opaque payload.
type Intent struct {
	// Action routes the intent to interested receivers.
	Action string
	// Payload carries action-specific data.
	Payload any
}

// Receiver handles broadcast intents, like Android's BroadcastReceiver.
type Receiver func(now time.Duration, intent Intent)

// Bus is the broadcast system: one-to-many, delivery in registration order,
// dispatched synchronously on the event loop for determinism.
type Bus struct {
	loop      *simtime.Loop
	receivers map[string][]Receiver
}

// NewBus returns a bus bound to the loop.
func NewBus(loop *simtime.Loop) *Bus {
	return &Bus{loop: loop, receivers: make(map[string][]Receiver)}
}

// Register subscribes a receiver to an action.
func (b *Bus) Register(action string, r Receiver) {
	b.receivers[action] = append(b.receivers[action], r)
}

// Broadcast delivers the intent to every receiver registered for its
// action, in registration order, at the current virtual time.
func (b *Bus) Broadcast(intent Intent) {
	now := b.loop.Now()
	for _, r := range b.receivers[intent.Action] {
		r(now, intent)
	}
}

// Broadcast actions used by the eTrain system.
const (
	// ActionHeartbeatSent is fired by the Xposed-style hook whenever a
	// train app transmits a heartbeat.
	ActionHeartbeatSent = "etrain.HEARTBEAT_SENT"
	// ActionSubmitRequest is fired by cargo apps to hand eTrain a
	// transmission request with its metadata.
	ActionSubmitRequest = "etrain.SUBMIT_REQUEST"
	// ActionTransmitDecision is fired by eTrain's broadcast module to tell
	// a cargo app to transmit specific packets now.
	ActionTransmitDecision = "etrain.TRANSMIT_DECISION"
)
