package android

import (
	"time"

	"etrain/internal/heartbeat"
	"etrain/internal/radio"
	"etrain/internal/simtime"
)

// HeartbeatEvent is the payload of ActionHeartbeatSent intents: the hook's
// report that a train app just transmitted a heartbeat.
type HeartbeatEvent struct {
	// App names the train app.
	App string
	// Size is the heartbeat payload in bytes.
	Size int64
}

// TrainService simulates one heartbeat-sending app: it schedules its beats
// with AlarmManager (paper §V-2), transmits them on the device radio, and —
// through the Xposed-style hook appended to its send path — broadcasts
// ActionHeartbeatSent so eTrain's monitor learns the exact send instant.
type TrainService struct {
	device *Device
	app    heartbeat.TrainApp
	alarm  *simtime.Alarm
	beat   int
	hooked bool
}

// StartTrain installs and starts a train app on the device. hooked controls
// whether the Xposed module is attached (eTrain is transparent to train
// apps, so they run identically either way; only the notification differs).
func StartTrain(device *Device, app heartbeat.TrainApp, hooked bool) (*TrainService, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	ts := &TrainService{device: device, app: app, hooked: hooked}
	ts.alarm = simtime.NewAlarm(device.Loop, app.FirstAt, app.Policy.IntervalAfter(0), ts.sendHeartbeat)
	return ts, nil
}

func (ts *TrainService) sendHeartbeat(now time.Duration) {
	if _, err := ts.device.Transmit(ts.app.PacketSize, radio.TxHeartbeat, ts.app.Name); err != nil {
		// A serialization error indicates a simulator bug; drop the beat
		// rather than corrupt the timeline.
		return
	}
	// Adaptive policies (NetEase) change the interval as beats accumulate:
	// the gap after beat index i is IntervalAfter(i).
	ts.alarm.SetInterval(ts.app.Policy.IntervalAfter(ts.beat))
	ts.beat++
	if ts.hooked {
		ts.device.Bus.Broadcast(Intent{
			Action:  ActionHeartbeatSent,
			Payload: HeartbeatEvent{App: ts.app.Name, Size: ts.app.PacketSize},
		})
	}
}
