package diurnal

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Profile bounds. Scenario documents and CLI flags are clamped against
// these so a typo cannot schedule a decade of push storms.
const (
	// MaxTimeScale bounds the week-compression knob: at 10⁴ a full week
	// replays in about a minute of sim time.
	MaxTimeScale = 10000.0
	// MaxPhaseJitter bounds per-device phase offsets.
	MaxPhaseJitter = 30 * Day
	// MaxEventHorizon bounds scheduled-event placement in diurnal time.
	MaxEventHorizon = 365 * Day
	// MaxEventFactor bounds cargo/beat modulation of a scheduled event.
	MaxEventFactor = 100.0
)

// ClassCurve binds an activity curve to a user class by name (the string
// form of workload.ActivenessClass, kept as a string so diurnal stays
// below workload in the dependency order).
type ClassCurve struct {
	Class string
	Curve *Curve
}

// Event is a scheduled fleet-wide happening on the diurnal clock — a
// push-notification storm, a maintenance window, an NYE-style spike. At
// and Duration are in diurnal time (so a storm "at hour 122 of the week"
// lands mid-Friday-evening regardless of time scale); a factor of zero
// means "leave that dimension alone". Events ignore per-device phase:
// every device sees the storm at the same sim instant, the way a real
// push fan-out hits the whole fleet at once.
type Event struct {
	Name string
	// At is the event start on the diurnal clock (from Profile.Start).
	At time.Duration
	// Duration is how long the event stays active.
	Duration time.Duration
	// CargoFactor multiplies cargo arrival rates while active (0 = off).
	CargoFactor float64
	// BeatFactor multiplies heartbeat cadence while active (0 = off);
	// 2 means beats arrive twice as fast.
	BeatFactor float64
	// Every repeats the event with this period when positive.
	Every time.Duration
}

// active reports whether the event covers diurnal instant d.
func (e Event) active(d time.Duration) bool {
	if e.Every > 0 {
		off := (d - e.At) % e.Every
		if off < 0 {
			off += e.Every
		}
		return off < e.Duration
	}
	return d >= e.At && d < e.At+e.Duration
}

// validate checks one event's bounds.
func (e Event) validate(i int) error {
	if e.At < 0 || e.At > MaxEventHorizon {
		return fmt.Errorf("diurnal: event %d (%q) at %v outside [0, %v]", i, e.Name, e.At, MaxEventHorizon)
	}
	if e.Duration <= 0 || e.Duration > MaxEventHorizon {
		return fmt.Errorf("diurnal: event %d (%q) duration %v outside (0, %v]", i, e.Name, e.Duration, MaxEventHorizon)
	}
	for _, f := range [2]float64{e.CargoFactor, e.BeatFactor} {
		if f < 0 || f > MaxEventFactor || math.IsNaN(f) {
			return fmt.Errorf("diurnal: event %d (%q) factor %v outside [0, %v]", i, e.Name, f, MaxEventFactor)
		}
	}
	if e.CargoFactor == 0 && e.BeatFactor == 0 {
		return fmt.Errorf("diurnal: event %d (%q) modulates nothing", i, e.Name)
	}
	if e.Every != 0 && e.Every < e.Duration {
		return fmt.Errorf("diurnal: event %d (%q) repeat period %v shorter than duration %v", i, e.Name, e.Every, e.Duration)
	}
	return nil
}

// Profile is a complete diurnal configuration: activity curves per user
// class (with a default for unlisted classes), the scheduled-event
// timeline, and the clock mapping from sim time to diurnal time.
type Profile struct {
	// Name identifies the profile (preset name or scenario label).
	Name string
	// TimeScale compresses diurnal time: diurnal = Start + phase +
	// sim·TimeScale. Zero means 1 (real time). 504 replays a week in a
	// 20-minute horizon.
	TimeScale float64
	// PhaseJitter is the per-device phase-offset span: each device's
	// clock is shifted by a seed-derived fraction of it.
	PhaseJitter time.Duration
	// Start is where on the diurnal clock sim time zero lands (e.g.
	// 34h = 10:00 Tuesday on a week curve).
	Start time.Duration
	// Classes binds curves to user classes by name; Default covers the
	// rest.
	Classes []ClassCurve
	Default *Curve
	// Events is the scheduled-event timeline.
	Events []Event
}

// normalizedScale returns the effective time scale (zero → 1).
func (p *Profile) normalizedScale() float64 {
	if p.TimeScale == 0 {
		return 1
	}
	return p.TimeScale
}

// Validate checks the profile's invariants.
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("diurnal: nil profile")
	}
	if p.Name == "" {
		return fmt.Errorf("diurnal: profile has no name")
	}
	if s := p.TimeScale; s < 0 || s > MaxTimeScale || math.IsNaN(s) {
		return fmt.Errorf("diurnal: time scale %v outside [0, %v]", s, MaxTimeScale)
	}
	if p.PhaseJitter < 0 || p.PhaseJitter > MaxPhaseJitter {
		return fmt.Errorf("diurnal: phase jitter %v outside [0, %v]", p.PhaseJitter, MaxPhaseJitter)
	}
	if p.Start < 0 || p.Start > MaxEventHorizon {
		return fmt.Errorf("diurnal: start %v outside [0, %v]", p.Start, MaxEventHorizon)
	}
	if p.Default == nil {
		return fmt.Errorf("diurnal: profile %q has no default curve", p.Name)
	}
	seen := make(map[string]bool, len(p.Classes))
	for i, cc := range p.Classes {
		if cc.Class == "" {
			return fmt.Errorf("diurnal: class curve %d has no class name", i)
		}
		if seen[cc.Class] {
			return fmt.Errorf("diurnal: duplicate class curve %q", cc.Class)
		}
		seen[cc.Class] = true
		if cc.Curve == nil {
			return fmt.Errorf("diurnal: class curve %q has no curve", cc.Class)
		}
	}
	for i, e := range p.Events {
		if err := e.validate(i); err != nil {
			return err
		}
	}
	return nil
}

// CurveFor returns the activity curve for a user class (the string form
// of workload.ActivenessClass), falling back to the default.
func (p *Profile) CurveFor(class string) *Curve {
	for _, cc := range p.Classes {
		if cc.Class == class {
			return cc.Curve
		}
	}
	return p.Default
}

// WithEvents returns a copy of the profile with extra scheduled events
// appended. The receiver is not modified; scenario timelines use this to
// layer scheduled_event entries onto a preset.
func (p *Profile) WithEvents(events ...Event) *Profile {
	out := *p
	out.Events = append(append([]Event(nil), p.Events...), events...)
	return &out
}

// writeCanonical writes the profile's canonical text, which Hash digests,
// to w: a header, each curve's cached text and the events.
func (p *Profile) writeCanonical(w io.Writer) {
	fmt.Fprintf(w, "diurnal/v1 name=%s scale=%g jitter=%s start=%s", p.Name, p.normalizedScale(), p.PhaseJitter, p.Start)
	fmt.Fprintf(w, " default=[%s]", p.Default.canonical())
	for _, cc := range p.Classes {
		fmt.Fprintf(w, " class=%s:[%s]", cc.Class, cc.Curve.canonical())
	}
	for _, e := range p.Events {
		fmt.Fprintf(w, " event=%s@%s+%s cargo=%g beat=%g every=%s", e.Name, e.At, e.Duration, e.CargoFactor, e.BeatFactor, e.Every)
	}
}

// Hash returns a 16-hex-digit digest of the profile's full configuration,
// folded into fleet config hashes so a checkpoint taken under one profile
// never resumes under another. It streams the canonical text through
// FNV-1a, the hash randx.DeriveString computes, so it never holds the
// whole text (9.5 KB for the week profile).
func (p *Profile) Hash() string {
	h := fnv.New64a()
	p.writeCanonical(h)
	return fmt.Sprintf("%016x", h.Sum64())
}

// weekdayLevels shapes a working day: a deep night trough, a morning
// ramp, lunchtime and evening peaks. Mean ≈ 0.97.
var weekdayLevels = [24]float64{
	0.25, 0.2, 0.15, 0.15, 0.2, 0.3, 0.5, 0.8, 1.1, 1.2, 1.2, 1.3,
	1.4, 1.3, 1.2, 1.2, 1.3, 1.5, 1.7, 1.8, 1.7, 1.4, 0.9, 0.5,
}

// weekendLevels shifts activity later and flattens the working-hours
// plateau. Mean ≈ 0.99.
var weekendLevels = [24]float64{
	0.35, 0.3, 0.25, 0.2, 0.2, 0.25, 0.35, 0.5, 0.7, 0.9, 1.1, 1.3,
	1.4, 1.4, 1.3, 1.3, 1.4, 1.5, 1.6, 1.7, 1.6, 1.3, 1.0, 0.6,
}

// classShape specializes a base curve per user class: active users swing
// harder (peaks amplified, troughs deepened), inactive users barely
// notice the time of day, moderate users track the base curve.
func classShape(base *Curve, class string) *Curve {
	switch class {
	case "active":
		return reshape(base, func(l float64) float64 { return math.Pow(l, 1.25) })
	case "inactive":
		return reshape(base, func(l float64) float64 { return 0.6 + 0.4*l })
	default:
		return base
	}
}

// withClassShapes attaches active/inactive specializations of the base
// curve; moderate (and any unknown class) falls through to the default.
func withClassShapes(p *Profile, base *Curve) *Profile {
	p.Default = base
	p.Classes = []ClassCurve{
		{Class: "active", Curve: classShape(base, "active")},
		{Class: "inactive", Curve: classShape(base, "inactive")},
	}
	return p
}

// Flat returns the identity profile: level 1 everywhere, no events. A
// fleet under Flat differs from a plain fleet only by the diurnal
// sampling machinery, which makes it the regression anchor.
func Flat() *Profile {
	c, err := NewCurve(Day, []Knot{{Offset: 0, Level: 1}})
	if err != nil {
		panic(err) // unreachable: literal curve is valid
	}
	return &Profile{Name: "flat", TimeScale: 1, Default: c}
}

// Weekday returns a single working-day profile.
func Weekday() *Profile {
	return withClassShapes(&Profile{Name: "weekday", TimeScale: 1}, hourly(weekdayLevels))
}

// Weekend returns a single weekend-day profile.
func Weekend() *Profile {
	return withClassShapes(&Profile{Name: "weekend", TimeScale: 1}, hourly(weekendLevels))
}

// Week returns the canonical 168-hour profile: five weekdays then two
// weekend days.
func Week() *Profile {
	wd := hourly(weekdayLevels)
	we := hourly(weekendLevels)
	base := concat(wd, wd, wd, wd, wd, we, we)
	return withClassShapes(&Profile{Name: "week", TimeScale: 1}, base)
}

// presets maps preset names to constructors; keep sorted by name.
var presets = []struct {
	name  string
	build func() *Profile
}{
	{"flat", Flat},
	{"week", Week},
	{"weekday", Weekday},
	{"weekend", Weekend},
}

// ByName returns a fresh instance of a preset profile.
func ByName(name string) (*Profile, error) {
	for _, p := range presets {
		if p.name == name {
			return p.build(), nil
		}
	}
	return nil, fmt.Errorf("diurnal: unknown profile %q (have %s)", name, strings.Join(PresetNames(), ", "))
}

// PresetNames lists the preset profile names in sorted order.
func PresetNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	sort.Strings(names)
	return names
}
