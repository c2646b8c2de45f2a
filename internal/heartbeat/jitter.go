package heartbeat

import (
	"sort"
	"time"

	"etrain/internal/randx"
)

// ScheduleJittered returns the app's heartbeat schedule with each beat
// perturbed uniformly within ±jitter, modelling OS scheduling delay and
// network queueing ahead of the alarm-driven send. The perturbed schedule
// stays monotone. Deterministic per source.
func (a TrainApp) ScheduleJittered(src *randx.Source, horizon, jitter time.Duration) []Beat {
	beats := a.Schedule(horizon, nil)
	if jitter <= 0 {
		return beats
	}
	prev := time.Duration(-1)
	for i := range beats {
		offset := time.Duration((src.Float64()*2 - 1) * float64(jitter))
		at := beats[i].At + offset
		if at < 0 {
			at = 0
		}
		if at <= prev {
			at = prev + time.Millisecond
		}
		beats[i].At = at
		prev = at
	}
	return beats
}

// MergeJittered combines jittered schedules of several apps into one sorted
// departure table.
func MergeJittered(src *randx.Source, apps []TrainApp, horizon, jitter time.Duration) []Beat {
	var all []Beat
	for _, a := range apps {
		all = append(all, a.ScheduleJittered(src.Split(), horizon, jitter)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}
