package workload

import (
	"fmt"
	"math"
	"sort"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/randx"
)

// ClassShare weights one activeness class within a synthesized device
// population, generalizing the three fixed groups of the paper's Fig. 11
// deployment to arbitrary mixes.
type ClassShare struct {
	// Class is the activeness class.
	Class ActivenessClass
	// Weight is the class's relative share; shares need not sum to 1.
	Weight float64
}

// ParseClass converts a mix-flag token to an ActivenessClass.
func ParseClass(s string) (ActivenessClass, error) {
	switch s {
	case "active":
		return ClassActive, nil
	case "moderate":
		return ClassModerate, nil
	case "inactive":
		return ClassInactive, nil
	default:
		return 0, fmt.Errorf("workload: unknown activeness class %q", s)
	}
}

// DefaultMix returns the population mix used for population-scale Fig. 11
// runs. The paper reports per-class savings over 100+ deployed users but
// not the group sizes; this mix assumes the familiar engagement pyramid —
// most users inactive, a thin highly-active head.
func DefaultMix() []ClassShare {
	return []ClassShare{
		{Class: ClassActive, Weight: 0.2},
		{Class: ClassModerate, Weight: 0.3},
		{Class: ClassInactive, Weight: 0.5},
	}
}

// Population deterministically assigns activeness classes by mix weight.
type Population struct {
	shares []ClassShare
	cum    []float64 // cumulative weights, cum[len-1] = total
}

// NewPopulation validates a class mix and returns its sampler.
func NewPopulation(mix []ClassShare) (*Population, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("workload: empty class mix")
	}
	p := &Population{
		shares: append([]ClassShare(nil), mix...),
		cum:    make([]float64, len(mix)),
	}
	total := 0.0
	for i, s := range mix {
		switch s.Class {
		case ClassActive, ClassModerate, ClassInactive:
		default:
			return nil, fmt.Errorf("workload: mix entry %d has unknown class %v", i, s.Class)
		}
		if s.Weight <= 0 || math.IsInf(s.Weight, 0) || math.IsNaN(s.Weight) {
			return nil, fmt.Errorf("workload: mix entry %d (%s) has non-positive weight %v", i, s.Class, s.Weight)
		}
		total += s.Weight
		p.cum[i] = total
	}
	return p, nil
}

// Shares returns a copy of the mix entries in declaration order.
func (p *Population) Shares() []ClassShare {
	return append([]ClassShare(nil), p.shares...)
}

// Pick maps a uniform draw u ∈ [0, 1) to a mix entry: the index into
// Shares and its class. The assignment is a pure function of u, so a
// device whose u is derived from its identity gets the same class no
// matter which worker simulates it.
func (p *Population) Pick(u float64) (int, ActivenessClass) {
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	target := u * p.cum[len(p.cum)-1]
	i := sort.SearchFloat64s(p.cum, target)
	// SearchFloat64s returns the first index with cum[i] >= target; a draw
	// landing exactly on a boundary belongs to the next entry.
	if i < len(p.cum) && p.cum[i] == target {
		i++
	}
	if i >= len(p.shares) {
		i = len(p.shares) - 1
	}
	return i, p.shares[i].Class
}

// SynthesizeSession generates a user trace of the requested activeness
// class over a session of the given length: upload events spread through
// the session with weibo-like sizes, interleaved with browse-triggered
// downloads. Event counts scale linearly with the session length relative
// to the paper's 10-minute app-use window, so a class keeps its
// per-window upload density at any horizon, and instants are uniform.
// A diurnal sampler instead scales counts with the activity curve's area
// over the session window and places instants by inverse-CDF over the
// device's phased curve, so a night-window session is sparse and an
// evening-peak session dense; it reinterprets the same draws in the same
// order. SynthesizeSession(src, id, class, SessionLength, nil) consumes
// exactly the same draws as SynthesizeUser and returns the same trace.
func SynthesizeSession(src *randx.Source, userID string, class ActivenessClass, length time.Duration, sam *diurnal.Sampler) []BehaviorRecord {
	uploads := scaleSessionCount(uploadsFor(src, class), length, sam)
	downloads := uploads/2 + src.Intn(uploads+1)
	var records []BehaviorRecord
	for i := 0; i < uploads; i++ {
		records = append(records, BehaviorRecord{
			UserID:   userID,
			Behavior: BehaviorUpload,
			At:       placeInSession(src.Float64(), length, sam),
			Size:     int64(src.TruncatedNormal(2*1024, 1024, 100)),
		})
	}
	for i := 0; i < downloads; i++ {
		records = append(records, BehaviorRecord{
			UserID:   userID,
			Behavior: BehaviorDownload,
			At:       placeInSession(src.Float64(), length, sam),
			Size:     int64(src.TruncatedNormal(8*1024, 4*1024, 500)),
		})
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].At < records[j].At })
	return records
}

// scaleSessionCount scales a per-10-minute-window event count to the
// session length, or under a sampler to the activity curve's area over the
// session window, keeping at least one event. Scaling by exactly 1.0 is
// the identity, which keeps SynthesizeUser bit-compatible, and under a
// flat level-1 curve the two scalings agree for any length.
func scaleSessionCount(base int, length time.Duration, sam *diurnal.Sampler) int {
	span, window := float64(length), float64(SessionLength)
	if sam != nil {
		span, window = sam.WindowWeight(length), SessionLength.Seconds()
	}
	scaled := int(math.Round(float64(base) * span / window))
	if scaled < 1 {
		return 1
	}
	return scaled
}

// placeInSession maps a uniform draw u ∈ [0, 1) onto an instant in
// [0, length): uniformly, or under a sampler by its activity curve.
func placeInSession(u float64, length time.Duration, sam *diurnal.Sampler) time.Duration {
	if sam == nil {
		return time.Duration(u * float64(length))
	}
	return sam.PlaceInWindow(u, length)
}
