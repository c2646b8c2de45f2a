package diurnal

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"etrain/internal/randx"
)

func TestPresetsValidate(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("preset %q reports name %q", name, p.Name)
		}
	}
	if _, err := ByName("nosuch"); err == nil || !strings.Contains(err.Error(), "unknown profile") {
		t.Errorf("ByName(nosuch) err = %v", err)
	}
}

func TestPresetMeansNearOne(t *testing.T) {
	// Presets reshape workloads without changing their volume much: the
	// period-mean of every curve (default and per class) stays near 1.
	for _, name := range PresetNames() {
		p, _ := ByName(name)
		curves := []*Curve{p.Default}
		for _, cc := range p.Classes {
			curves = append(curves, cc.Curve)
		}
		for i, c := range curves {
			if m := c.mean(); m < 0.8 || m > 1.2 {
				t.Errorf("preset %q curve %d mean %v outside [0.8, 1.2]", name, i, m)
			}
		}
	}
}

func TestCurveFor(t *testing.T) {
	p := Week()
	if p.CurveFor("active") == p.Default {
		t.Error("active class should have its own curve")
	}
	if p.CurveFor("moderate") != p.Default {
		t.Error("moderate class should fall through to default")
	}
	if p.CurveFor("nosuch") != p.Default {
		t.Error("unknown class should fall through to default")
	}
	// Active users swing harder: deeper troughs, higher peaks.
	act := p.CurveFor("active")
	if act.Max() <= p.Default.Max() {
		t.Errorf("active max %v ≤ default max %v", act.Max(), p.Default.Max())
	}
	inact := p.CurveFor("inactive")
	if inact.Max() >= p.Default.Max() {
		t.Errorf("inactive max %v ≥ default max %v", inact.Max(), p.Default.Max())
	}
}

func TestProfileHash(t *testing.T) {
	a, b := Week(), Week()
	if a.Hash() != b.Hash() {
		t.Errorf("equal profiles hash differently: %s vs %s", a.Hash(), b.Hash())
	}
	if len(a.Hash()) != 16 {
		t.Errorf("hash %q not 16 hex digits", a.Hash())
	}
	mutations := []func(*Profile){
		func(p *Profile) { p.TimeScale = 2 },
		func(p *Profile) { p.PhaseJitter = time.Hour },
		func(p *Profile) { p.Start = 34 * time.Hour },
		func(p *Profile) { p.Name = "other" },
		func(p *Profile) {
			p.Events = []Event{{Name: "storm", At: time.Hour, Duration: time.Hour, CargoFactor: 3}}
		},
	}
	for i, mut := range mutations {
		m := Week()
		mut(m)
		if m.Hash() == a.Hash() {
			t.Errorf("mutation %d did not change the hash", i)
		}
	}
}

// canonical renders the text Hash digests.
func (p *Profile) canonical() string {
	var b strings.Builder
	p.writeCanonical(&b)
	return b.String()
}

// refCurveCanonical and refProfileCanonical are the renderings Hash used
// before a curve rendered its text once, on its first hash, kept verbatim
// as the reference: every fleet and scenario config hash folds them in.
func refCurveCanonical(c *Curve, b *strings.Builder) {
	fmt.Fprintf(b, "period=%s knots=", c.period)
	for i, k := range c.knots {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%s:%g", k.Offset, k.Level)
	}
}

func refProfileCanonical(p *Profile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "diurnal/v1 name=%s scale=%g jitter=%s start=%s", p.Name, p.normalizedScale(), p.PhaseJitter, p.Start)
	fmt.Fprintf(&b, " default=[")
	refCurveCanonical(p.Default, &b)
	b.WriteByte(']')
	for _, cc := range p.Classes {
		fmt.Fprintf(&b, " class=%s:[", cc.Class)
		refCurveCanonical(cc.Curve, &b)
		b.WriteByte(']')
	}
	for _, e := range p.Events {
		fmt.Fprintf(&b, " event=%s@%s+%s cargo=%g beat=%g every=%s", e.Name, e.At, e.Duration, e.CargoFactor, e.BeatFactor, e.Every)
	}
	return b.String()
}

// TestCanonicalMatchesReference pins every preset's canonical text, and
// so its hash, to the per-call rendering it replaced, with a time scale
// and an event layered on as the fleet and scenarios do.
func TestCanonicalMatchesReference(t *testing.T) {
	for _, name := range PresetNames() {
		base, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scaled := *base
		scaled.TimeScale = 1008
		for _, p := range []*Profile{base, &scaled, scaled.WithEvents(Event{Name: "storm", At: time.Hour, Duration: time.Hour, CargoFactor: 3})} {
			want := refProfileCanonical(p)
			if got := p.canonical(); got != want {
				t.Fatalf("%s: canonical text\n%s\nwant\n%s", name, got, want)
			}
			if got, want := p.Hash(), fmt.Sprintf("%016x", uint64(randx.DeriveString(want))); got != want {
				t.Fatalf("%s: hash %s, want %s", name, got, want)
			}
		}
	}
}

// TestHashConcurrent hashes one fresh profile from several goroutines at
// once: a curve renders its canonical text on the first hash, and every
// caller must get the reference hash.
func TestHashConcurrent(t *testing.T) {
	p := Week()
	want := fmt.Sprintf("%016x", uint64(randx.DeriveString(refProfileCanonical(p))))
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := p.Hash(); got != want {
				t.Errorf("hash %s, want %s", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestWithEventsDoesNotMutate(t *testing.T) {
	p := Week()
	q := p.WithEvents(Event{Name: "storm", At: time.Hour, Duration: time.Hour, CargoFactor: 3})
	if len(p.Events) != 0 {
		t.Errorf("WithEvents mutated receiver: %d events", len(p.Events))
	}
	if len(q.Events) != 1 {
		t.Errorf("WithEvents result has %d events, want 1", len(q.Events))
	}
	if p.Hash() == q.Hash() {
		t.Error("event did not change the hash")
	}
}

func TestEventActive(t *testing.T) {
	oneShot := Event{At: 10 * time.Hour, Duration: 2 * time.Hour, CargoFactor: 3}
	recurring := Event{At: 3 * time.Hour, Duration: time.Hour, Every: Day, CargoFactor: 0.1}
	cases := []struct {
		e    Event
		d    time.Duration
		want bool
	}{
		{oneShot, 10*time.Hour - time.Nanosecond, false},
		{oneShot, 10 * time.Hour, true},
		{oneShot, 12*time.Hour - time.Nanosecond, true},
		{oneShot, 12 * time.Hour, false},
		{oneShot, 34 * time.Hour, false}, // one-shot does not recur
		{recurring, 3 * time.Hour, true},
		{recurring, 4 * time.Hour, false},
		{recurring, Day + 3*time.Hour + 30*time.Minute, true}, // next day
		{recurring, 6*Day + 3*time.Hour, true},                // any day
		{recurring, 0, false},                                 // before first window, wraps to prior day's tail
	}
	for _, tc := range cases {
		if got := tc.e.active(tc.d); got != tc.want {
			t.Errorf("active(%v) = %v, want %v (event %+v)", tc.d, got, tc.want, tc.e)
		}
	}
}

func TestProfileValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Profile)
		msg  string
	}{
		{"no name", func(p *Profile) { p.Name = "" }, "no name"},
		{"scale", func(p *Profile) { p.TimeScale = MaxTimeScale + 1 }, "time scale"},
		{"neg scale", func(p *Profile) { p.TimeScale = -1 }, "time scale"},
		{"jitter", func(p *Profile) { p.PhaseJitter = MaxPhaseJitter + 1 }, "phase jitter"},
		{"start", func(p *Profile) { p.Start = -time.Hour }, "start"},
		{"no default", func(p *Profile) { p.Default = nil }, "no default curve"},
		{"dup class", func(p *Profile) {
			p.Classes = append(p.Classes, ClassCurve{Class: "active", Curve: p.Default})
		}, "duplicate class"},
		{"unnamed class", func(p *Profile) {
			p.Classes = append(p.Classes, ClassCurve{Curve: p.Default})
		}, "no class name"},
		{"nil class curve", func(p *Profile) {
			p.Classes = append(p.Classes, ClassCurve{Class: "moderate"})
		}, "no curve"},
		{"event at", func(p *Profile) {
			p.Events = []Event{{At: -time.Hour, Duration: time.Hour, CargoFactor: 2}}
		}, "outside"},
		{"event duration", func(p *Profile) {
			p.Events = []Event{{At: time.Hour, CargoFactor: 2}}
		}, "duration"},
		{"event factor", func(p *Profile) {
			p.Events = []Event{{At: 0, Duration: time.Hour, CargoFactor: MaxEventFactor + 1}}
		}, "factor"},
		{"event idle", func(p *Profile) {
			p.Events = []Event{{At: 0, Duration: time.Hour}}
		}, "modulates nothing"},
		{"event every", func(p *Profile) {
			p.Events = []Event{{At: 0, Duration: 2 * time.Hour, Every: time.Hour, CargoFactor: 2}}
		}, "repeat period"},
	}
	for _, tc := range cases {
		p := Week()
		tc.mut(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.msg)
		}
	}
	var nilProfile *Profile
	if err := nilProfile.Validate(); err == nil {
		t.Error("nil profile validated")
	}
}
