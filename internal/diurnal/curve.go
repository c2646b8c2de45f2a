// Package diurnal models time-varying workload intensity: per-user-class
// activity curves (piecewise daily/weekly profiles with seeded per-device
// phase jitter), a timeline of scheduled events (push storms, maintenance
// windows, NYE-style spikes) that modulate heartbeat cadence and cargo
// arrival rates, and a time-scale knob that compresses a simulated week
// into minutes of virtual time.
//
// Everything in the package is a pure function of (profile, device
// identity, sim time): curves are evaluated analytically, per-device phase
// comes from randx.Derive (consuming no stream state), and arrival
// thinning draws from an explicit caller-provided stream. A fleet that
// attaches a diurnal profile therefore keeps the repository's determinism
// contract — byte-identical reports at any worker count (DESIGN.md §14).
package diurnal

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Day is the period of a daily activity curve; the Week() preset's
// period is 7*Day.
const Day = 24 * time.Hour

// Knot is one step of a piecewise-constant activity curve: the Level
// holds from Offset until the next knot's offset (wrapping at the period).
type Knot struct {
	// Offset is the knot's position within the period, in [0, period).
	Offset time.Duration
	// Level is the dimensionless activity multiplier held from Offset.
	Level float64
}

// Curve is a periodic piecewise-constant activity multiplier. A level of
// 1 means baseline intensity; the presets keep the period mean near 1 so
// attaching a curve reshapes a workload without changing its volume much.
type Curve struct {
	period time.Duration
	knots  []Knot
	// prefix[i] is the integral (level·seconds) over [0, knots[i].Offset);
	// segEnd[i] is the integral through the end of segment i. total is the
	// integral over one full period.
	prefix []float64
	segEnd []float64
	total  float64
	max    float64
	// text is the curve's canonical rendering for hashing. A curve never
	// changes after NewCurve, so the first hash renders it for every later
	// one; building a curve renders nothing.
	text     string
	textOnce sync.Once
}

// NewCurve validates the knots and returns the curve. Knots must be
// sorted by strictly increasing offset, start at offset 0, stay inside
// the period, and carry finite non-negative levels with at least one
// positive level.
func NewCurve(period time.Duration, knots []Knot) (*Curve, error) {
	if period <= 0 {
		return nil, fmt.Errorf("diurnal: non-positive curve period %v", period)
	}
	if len(knots) == 0 {
		return nil, fmt.Errorf("diurnal: curve has no knots")
	}
	if knots[0].Offset != 0 {
		return nil, fmt.Errorf("diurnal: first knot at %v, want 0", knots[0].Offset)
	}
	c := &Curve{
		period: period,
		knots:  append([]Knot(nil), knots...),
		prefix: make([]float64, len(knots)),
		segEnd: make([]float64, len(knots)),
	}
	for i, k := range c.knots {
		if k.Offset < 0 || k.Offset >= period {
			return nil, fmt.Errorf("diurnal: knot %d offset %v outside [0, %v)", i, k.Offset, period)
		}
		if i > 0 && k.Offset <= c.knots[i-1].Offset {
			return nil, fmt.Errorf("diurnal: knot %d offset %v not after knot %d at %v",
				i, k.Offset, i-1, c.knots[i-1].Offset)
		}
		if k.Level < 0 || math.IsInf(k.Level, 0) || math.IsNaN(k.Level) {
			return nil, fmt.Errorf("diurnal: knot %d level %v must be finite and ≥ 0", i, k.Level)
		}
		if k.Level > c.max {
			c.max = k.Level
		}
	}
	if c.max == 0 {
		return nil, fmt.Errorf("diurnal: curve is zero everywhere")
	}
	acc := 0.0
	for i, k := range c.knots {
		c.prefix[i] = acc
		acc += k.Level * c.segmentWidth(i).Seconds()
		c.segEnd[i] = acc
	}
	c.total = acc
	return c, nil
}

// segmentWidth returns the span segment i's level holds for.
func (c *Curve) segmentWidth(i int) time.Duration {
	if i+1 < len(c.knots) {
		return c.knots[i+1].Offset - c.knots[i].Offset
	}
	return c.period - c.knots[i].Offset
}

// Max returns the curve's peak level.
func (c *Curve) Max() float64 { return c.max }

// wrap maps any instant into [0, period).
func (c *Curve) wrap(at time.Duration) time.Duration {
	m := at % c.period
	if m < 0 {
		m += c.period
	}
	return m
}

// segment returns the index of the knot whose level holds at offset
// m ∈ [0, period).
func (c *Curve) segment(m time.Duration) int {
	i := sort.Search(len(c.knots), func(i int) bool { return c.knots[i].Offset > m })
	return i - 1
}

// Level returns the activity multiplier at the given instant (periodic).
func (c *Curve) Level(at time.Duration) float64 {
	return c.knots[c.segment(c.wrap(at))].Level
}

// cum returns the running integral (level·seconds) over [0, t); t may be
// negative or span many periods.
func (c *Curve) cum(t time.Duration) float64 {
	n := math.Floor(float64(t) / float64(c.period))
	rem := t - time.Duration(n*float64(c.period))
	if rem < 0 { // float guard at period boundaries
		rem = 0
	}
	if rem >= c.period {
		rem = c.period
		n -= 1
		rem = t - time.Duration(n*float64(c.period))
		if rem > c.period {
			rem = c.period
		}
	}
	i := c.segment(c.wrap(rem))
	partial := c.prefix[i] + c.knots[i].Level*(rem-c.knots[i].Offset).Seconds()
	return n*c.total + partial
}

// Integral returns the integral of the level (level·seconds) over
// [from, to); zero when to ≤ from.
func (c *Curve) Integral(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return c.cum(to) - c.cum(from)
}

// inverseCum returns the smallest t ≥ 0 with cum(t) ≥ area. Areas inside
// zero-level segments resolve to the segment start, so events never land
// where the curve is silent.
func (c *Curve) inverseCum(area float64) time.Duration {
	if area <= 0 {
		return 0
	}
	whole := math.Floor(area / c.total)
	rem := area - whole*c.total
	i := sort.SearchFloat64s(c.segEnd, rem)
	if i >= len(c.knots) {
		i = len(c.knots) - 1
	}
	var within time.Duration
	if lvl := c.knots[i].Level; lvl > 0 {
		within = time.Duration((rem - c.prefix[i]) / lvl * float64(time.Second))
		if within < 0 {
			within = 0
		}
		if w := c.segmentWidth(i); within > w {
			within = w
		}
	}
	return time.Duration(whole*float64(c.period)) + c.knots[i].Offset + within
}

// canonical returns the curve's canonical text, period plus every knot,
// rendering it on the first call.
func (c *Curve) canonical() string {
	c.textOnce.Do(func() { c.text = c.render() })
	return c.text
}

// render renders the canonical text.
func (c *Curve) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "period=%s knots=", c.period)
	for i, k := range c.knots {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%g", k.Offset, k.Level)
	}
	return b.String()
}

// hourly builds a daily curve from 24 per-hour levels.
func hourly(levels [24]float64) *Curve {
	knots := make([]Knot, 24)
	for h, lvl := range levels {
		knots[h] = Knot{Offset: time.Duration(h) * time.Hour, Level: lvl}
	}
	c, err := NewCurve(Day, knots)
	if err != nil {
		panic(err) // unreachable: literal levels are valid
	}
	return c
}

// concat joins daily curves into one multi-day curve (e.g. a week).
func concat(days ...*Curve) *Curve {
	var knots []Knot
	offset := time.Duration(0)
	period := time.Duration(0)
	for _, d := range days {
		for _, k := range d.knots {
			knots = append(knots, Knot{Offset: offset + k.Offset, Level: k.Level})
		}
		offset += d.period
		period += d.period
	}
	c, err := NewCurve(period, knots)
	if err != nil {
		panic(err) // unreachable: inputs are valid curves
	}
	return c
}

// reshape applies f to every knot level, clamping at 0.
func reshape(c *Curve, f func(float64) float64) *Curve {
	knots := make([]Knot, len(c.knots))
	for i, k := range c.knots {
		lvl := f(k.Level)
		if lvl < 0 {
			lvl = 0
		}
		knots[i] = Knot{Offset: k.Offset, Level: lvl}
	}
	out, err := NewCurve(c.period, knots)
	if err != nil {
		panic(err) // unreachable: reshaping a valid curve stays valid
	}
	return out
}
