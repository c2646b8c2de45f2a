package heartbeat

import (
	"sort"
	"time"
)

// Detector recovers per-app heartbeat cycles from an observed stream of
// heartbeat timestamps — the offline analysis the paper performed on
// Wireshark captures (§II-B), and the basis of eTrain's prediction that
// t_s(h_{i,j}) = t_s(h_{i,0}) + cycle_i·j.
type Detector struct {
	// Tolerance is the jitter allowed when declaring a cycle stable.
	Tolerance time.Duration

	observed map[string][]time.Duration
}

// NewDetector returns a detector with the given jitter tolerance.
func NewDetector(tolerance time.Duration) *Detector {
	return &Detector{
		Tolerance: tolerance,
		observed:  make(map[string][]time.Duration),
	}
}

// Observe records one heartbeat of the named app at virtual instant at.
// Observations must arrive in non-decreasing time order per app.
func (d *Detector) Observe(app string, at time.Duration) {
	d.observed[app] = append(d.observed[app], at)
}

// Apps returns the names of all observed apps, sorted.
func (d *Detector) Apps() []string {
	names := make([]string, 0, len(d.observed))
	for name := range d.observed {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Cycle estimates app's heartbeat cycle as the median inter-beat gap.
// It returns false until at least three beats were observed.
func (d *Detector) Cycle(app string) (time.Duration, bool) {
	beats := d.observed[app]
	if len(beats) < 3 {
		return 0, false
	}
	gaps := make([]time.Duration, 0, len(beats)-1)
	for i := 1; i < len(beats); i++ {
		gaps = append(gaps, beats[i]-beats[i-1])
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps[len(gaps)/2], true
}

// Stable reports whether app's observed gaps all fall within Tolerance of
// the estimated cycle — true for the fixed-cycle IM apps, false for
// NetEase's doubling schedule.
func (d *Detector) Stable(app string) bool {
	cycle, ok := d.Cycle(app)
	if !ok {
		return false
	}
	beats := d.observed[app]
	for i := 1; i < len(beats); i++ {
		gap := beats[i] - beats[i-1]
		diff := gap - cycle
		if diff < 0 {
			diff = -diff
		}
		if diff > d.Tolerance {
			return false
		}
	}
	return true
}

// CycleRange returns the smallest and largest observed gap for app, which
// is how the paper reports NetEase's "60–480 s" entry in Table 1.
func (d *Detector) CycleRange(app string) (min, max time.Duration, ok bool) {
	beats := d.observed[app]
	if len(beats) < 2 {
		return 0, 0, false
	}
	min = beats[1] - beats[0]
	max = min
	for i := 2; i < len(beats); i++ {
		gap := beats[i] - beats[i-1]
		if gap < min {
			min = gap
		}
		if gap > max {
			max = gap
		}
	}
	return min, max, true
}

// PredictNext returns the predicted instant of app's next heartbeat after
// the last observation, using the estimated cycle. ok is false if no stable
// prediction is possible yet.
func (d *Detector) PredictNext(app string) (time.Duration, bool) {
	cycle, ok := d.Cycle(app)
	if !ok {
		return 0, false
	}
	beats := d.observed[app]
	return beats[len(beats)-1] + cycle, true
}
