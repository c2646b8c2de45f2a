package diurnal

import (
	"math"
	"strings"
	"testing"
	"time"
)

func mustCurve(t *testing.T, period time.Duration, knots []Knot) *Curve {
	t.Helper()
	c, err := NewCurve(period, knots)
	if err != nil {
		t.Fatalf("NewCurve: %v", err)
	}
	return c
}

// twoStep is a 10 s curve: level 2 for 4 s, level 0.5 for 6 s.
func twoStep(t *testing.T) *Curve {
	return mustCurve(t, 10*time.Second, []Knot{
		{Offset: 0, Level: 2},
		{Offset: 4 * time.Second, Level: 0.5},
	})
}

// mean is the curve's period-average level.
func (c *Curve) mean() float64 { return c.total / c.period.Seconds() }

func TestCurveLevel(t *testing.T) {
	c := twoStep(t)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 2},
		{3999 * time.Millisecond, 2},
		{4 * time.Second, 0.5},
		{9999 * time.Millisecond, 0.5},
		{10 * time.Second, 2},   // wraps
		{-1 * time.Second, 0.5}, // negative wraps into the tail segment
		{-7 * time.Second, 2},   // negative wraps into the head segment
		{25 * time.Second, 0.5}, // second period
		{172 * time.Second, 2},  // many periods
	}
	for _, tc := range cases {
		if got := c.Level(tc.at); got != tc.want {
			t.Errorf("Level(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

func TestCurveMeanMax(t *testing.T) {
	c := twoStep(t)
	// (2·4 + 0.5·6) / 10 = 1.1
	if got := c.mean(); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("Mean() = %v, want 1.1", got)
	}
	if got := c.Max(); got != 2 {
		t.Errorf("Max() = %v, want 2", got)
	}
	if got := c.period; got != 10*time.Second {
		t.Errorf("Period() = %v, want 10s", got)
	}
}

// TestCurveIntegralMatchesRiemann checks the analytic integral against a
// fine Riemann sum over windows that cross period boundaries.
func TestCurveIntegralMatchesRiemann(t *testing.T) {
	c := twoStep(t)
	windows := []struct{ from, to time.Duration }{
		{0, 10 * time.Second},
		{2 * time.Second, 7 * time.Second},
		{-3 * time.Second, 13 * time.Second},
		{9 * time.Second, 31 * time.Second},
		{500 * time.Millisecond, 500 * time.Millisecond}, // empty
		{7 * time.Second, 3 * time.Second},               // inverted → 0
	}
	const step = time.Millisecond
	for _, w := range windows {
		want := 0.0
		for at := w.from; at < w.to; at += step {
			want += c.Level(at) * step.Seconds()
		}
		got := c.Integral(w.from, w.to)
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("Integral(%v, %v) = %v, want ≈ %v", w.from, w.to, got, want)
		}
	}
}

// TestCurveCumPeriodBoundaries holds cum to an exact integer-remainder
// reference within ±4 ns of period boundaries across the whole
// time.Duration range, negative t included. There float64(t)/period can
// round onto the wrong side of a boundary, which is what cum's float
// guards correct; the sweep must reach them, and they must correct
// exactly.
func TestCurveCumPeriodBoundaries(t *testing.T) {
	c := mustCurve(t, Day, []Knot{{Offset: 0, Level: 0.2}, {Offset: 6 * time.Hour, Level: 1.5}, {Offset: 18 * time.Hour, Level: 0.5}})
	p := c.period
	ref := func(at time.Duration) float64 {
		n, rem := at/p, at%p
		if rem < 0 {
			n--
			rem += p
		}
		i := c.segment(rem)
		return float64(n)*c.total + (c.prefix[i] + c.knots[i].Level*(rem-c.knots[i].Offset).Seconds())
	}
	// maxK whole periods, plus 4 ns either side, stay inside int64.
	maxK := int64(math.MaxInt64/p) - 1
	guarded := 0
	for k := -maxK; k <= maxK; k += 37 {
		for d := time.Duration(-4); d <= 4; d++ {
			at := time.Duration(k)*p + d
			n := math.Floor(float64(at) / float64(p))
			if rem := at - time.Duration(n*float64(p)); rem < 0 || rem >= p {
				guarded++
			}
			if got, want := c.cum(at), ref(at); got != want {
				t.Fatalf("cum(%d) = %v, exact reference %v", int64(at), got, want)
			}
		}
	}
	if guarded == 0 {
		t.Fatal("sweep never reached cum's float guards")
	}
}

// TestCurveInverseCum checks that inverseCum inverts cum across several
// periods, including areas landing inside zero-level segments.
func TestCurveInverseCum(t *testing.T) {
	c := mustCurve(t, 10*time.Second, []Knot{
		{Offset: 0, Level: 2},
		{Offset: 4 * time.Second, Level: 0},
		{Offset: 6 * time.Second, Level: 1},
	})
	for _, area := range []float64{0, 0.1, 3.9, 8, 11.9, 12, 24.5, 100} {
		at := c.inverseCum(area)
		got := c.cum(at)
		if math.Abs(got-area) > 1e-6 {
			t.Errorf("cum(inverseCum(%v)) = %v at %v", area, got, at)
		}
	}
	// Inside the zero segment the inverse resolves to the segment start.
	// cum(4s) = 8; the curve is silent until 6 s.
	if at := c.inverseCum(8); at != 4*time.Second {
		t.Errorf("inverseCum(8) = %v, want 4s (start of silent segment)", at)
	}
}

func TestCurveInverseCumMonotone(t *testing.T) {
	c := twoStep(t)
	prev := time.Duration(-1)
	for area := 0.0; area < 40; area += 0.173 {
		at := c.inverseCum(area)
		if at < prev {
			t.Fatalf("inverseCum not monotone: area %v → %v < prev %v", area, at, prev)
		}
		prev = at
	}
}

func TestNewCurveRejects(t *testing.T) {
	sec := time.Second
	cases := []struct {
		name   string
		period time.Duration
		knots  []Knot
		msg    string
	}{
		{"zero period", 0, []Knot{{0, 1}}, "period"},
		{"no knots", 10 * sec, nil, "no knots"},
		{"first not zero", 10 * sec, []Knot{{sec, 1}}, "first knot"},
		{"offset past period", 10 * sec, []Knot{{0, 1}, {11 * sec, 1}}, "outside"},
		{"unsorted", 10 * sec, []Knot{{0, 1}, {5 * sec, 1}, {3 * sec, 1}}, "not after"},
		{"negative level", 10 * sec, []Knot{{0, -1}}, "finite"},
		{"nan level", 10 * sec, []Knot{{0, math.NaN()}}, "finite"},
		{"all zero", 10 * sec, []Knot{{0, 0}, {5 * sec, 0}}, "zero everywhere"},
	}
	for _, tc := range cases {
		_, err := NewCurve(tc.period, tc.knots)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.msg)
		}
	}
}

func TestHourlyAndConcat(t *testing.T) {
	wd := hourly(weekdayLevels)
	if wd.period != Day {
		t.Fatalf("weekday period = %v", wd.period)
	}
	if m := wd.mean(); m < 0.9 || m > 1.1 {
		t.Errorf("weekday mean %v outside [0.9, 1.1]", m)
	}
	we := hourly(weekendLevels)
	week := concat(wd, wd, wd, wd, wd, we, we)
	if week.period != 7*Day {
		t.Fatalf("week period = %v", week.period)
	}
	// Saturday 13:00 is the 5th day's 13:00 slot.
	if got, want := week.Level(5*Day+13*time.Hour), weekendLevels[13]; got != want {
		t.Errorf("week Saturday 13:00 level = %v, want %v", got, want)
	}
	if got, want := week.Level(2*Day+3*time.Hour), weekdayLevels[3]; got != want {
		t.Errorf("week Wednesday 03:00 level = %v, want %v", got, want)
	}
	// The week integral is the sum of its days'.
	want := 5*wd.Integral(0, Day) + 2*we.Integral(0, Day)
	if got := week.Integral(0, 7*Day); math.Abs(got-want) > 1e-6 {
		t.Errorf("week integral = %v, want %v", got, want)
	}
}

func TestReshape(t *testing.T) {
	c := twoStep(t)
	sq := reshape(c, func(l float64) float64 { return l * l })
	if got := sq.Level(0); got != 4 {
		t.Errorf("reshaped level = %v, want 4", got)
	}
	if got := sq.Level(5 * time.Second); got != 0.25 {
		t.Errorf("reshaped level = %v, want 0.25", got)
	}
	// Original untouched.
	if got := c.Level(0); got != 2 {
		t.Errorf("reshape mutated source: level = %v", got)
	}
}
