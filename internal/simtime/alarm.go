package simtime

import "time"

// Alarm is a handle to a (possibly repeating) scheduled callback, in the
// spirit of Android's AlarmManager: train apps use alarms to schedule their
// periodic heartbeats.
type Alarm struct {
	loop     *Loop
	interval time.Duration
	fire     Event
}

// NewAlarm schedules fire to first run at virtual instant first and then,
// if interval > 0, to repeat every interval.
func NewAlarm(loop *Loop, first, interval time.Duration, fire Event) *Alarm {
	a := &Alarm{loop: loop, interval: interval, fire: fire}
	loop.Schedule(first, a.run)
	return a
}

func (a *Alarm) run(now time.Duration) {
	a.fire(now)
	if a.interval <= 0 {
		return
	}
	a.loop.Schedule(now+a.interval, a.run)
}

// SetInterval changes the repeat interval applied after the next firing.
// NetEase-style adaptive heartbeats use this to double their cycle.
func (a *Alarm) SetInterval(interval time.Duration) { a.interval = interval }
