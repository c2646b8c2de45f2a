package diurnal

import (
	"math"
	"reflect"
	"testing"
	"time"

	"etrain/internal/heartbeat"
	"etrain/internal/randx"
)

func TestPhaseDeterministicAndBounded(t *testing.T) {
	p := Week()
	p.PhaseJitter = 2 * time.Hour
	seen := make(map[time.Duration]bool)
	for seed := int64(1); seed <= 64; seed++ {
		a := p.ForDevice("active", seed)
		b := p.ForDevice("active", seed)
		if a.phase != b.phase {
			t.Fatalf("seed %d: phase not deterministic: %v vs %v", seed, a.phase, b.phase)
		}
		if a.phase < 0 || a.phase >= p.PhaseJitter {
			t.Fatalf("seed %d: phase %v outside [0, %v)", seed, a.phase, p.PhaseJitter)
		}
		seen[a.phase] = true
	}
	if len(seen) < 32 {
		t.Errorf("only %d distinct phases over 64 seeds", len(seen))
	}
	// No jitter → no phase.
	if got := Week().ForDevice("active", 7).phase; got != 0 {
		t.Errorf("zero-jitter phase = %v", got)
	}
}

func TestPhaseConsumesNoStreamState(t *testing.T) {
	// Building a sampler must not disturb any stream: two sources with
	// the same seed must stay in lockstep across a ForDevice call.
	src1, src2 := randx.New(99), randx.New(99)
	_ = src1.Float64()
	_ = src2.Float64()
	Week().ForDevice("active", 42)
	if a, b := src1.Float64(), src2.Float64(); a != b {
		t.Fatalf("ForDevice disturbed stream state: %v vs %v", a, b)
	}
}

func TestFlatSamplerIsIdentity(t *testing.T) {
	s := Flat().ForDevice("moderate", 5)
	for _, at := range []time.Duration{0, time.Hour, 37 * time.Hour} {
		if got := s.CargoFactor(at); got != 1 {
			t.Errorf("flat CargoFactor(%v) = %v", at, got)
		}
		if got := s.BeatFactor(at); got != 1 {
			t.Errorf("flat BeatFactor(%v) = %v", at, got)
		}
	}
	if got := s.WindowWeight(3 * time.Hour); math.Abs(got-(3*time.Hour).Seconds()) > 1e-6 {
		t.Errorf("flat WindowWeight(3h) = %v, want %v", got, (3 * time.Hour).Seconds())
	}
	if got := s.MaxCargoFactor(); got != 1 {
		t.Errorf("flat MaxCargoFactor = %v", got)
	}
}

func TestCargoFactorTracksCurveAndEvents(t *testing.T) {
	p := Week()
	p.Start = 34 * time.Hour // Tuesday 10:00
	p.Events = []Event{
		{Name: "storm", At: 36 * time.Hour, Duration: time.Hour, CargoFactor: 3, BeatFactor: 2},
	}
	s := p.ForDevice("moderate", 1)
	// Outside the storm the factor is the raw curve level.
	if got, want := s.CargoFactor(0), p.Default.Level(34*time.Hour); got != want {
		t.Errorf("CargoFactor(0) = %v, want %v", got, want)
	}
	if got := s.BeatFactor(0); got != 1 {
		t.Errorf("BeatFactor(0) = %v, want 1", got)
	}
	// Two sim hours in (scale 1) the storm is active.
	at := 2*time.Hour + time.Minute
	wantCargo := p.Default.Level(34*time.Hour+at) * 3
	if got := s.CargoFactor(at); math.Abs(got-wantCargo) > 1e-12 {
		t.Errorf("CargoFactor in storm = %v, want %v", got, wantCargo)
	}
	if got := s.BeatFactor(at); got != 2 {
		t.Errorf("BeatFactor in storm = %v, want 2", got)
	}
}

func TestEventsIgnorePhase(t *testing.T) {
	// Two devices with very different phases must see a scheduled event
	// at the same sim instant.
	p := Week()
	p.PhaseJitter = 20 * time.Hour
	p.Events = []Event{{Name: "storm", At: 5 * time.Hour, Duration: time.Hour, BeatFactor: 2}}
	a := p.ForDevice("moderate", 3)
	b := p.ForDevice("moderate", 1234567)
	if a.phase == b.phase {
		t.Skip("seeds drew equal phases; pick different seeds")
	}
	at := 5*time.Hour + 30*time.Minute
	if a.BeatFactor(at) != 2 || b.BeatFactor(at) != 2 {
		t.Errorf("storm not simultaneous: %v vs %v", a.BeatFactor(at), b.BeatFactor(at))
	}
	before := 4 * time.Hour
	if a.BeatFactor(before) != 1 || b.BeatFactor(before) != 1 {
		t.Errorf("storm leaked outside its window")
	}
}

func TestTimeScaleCompressesClock(t *testing.T) {
	p := Week()
	p.TimeScale = 504 // one week in 20 minutes
	s := p.ForDevice("moderate", 1)
	// 10 sim minutes → 84 diurnal hours (middle of Thursday night).
	simAt := 10 * time.Minute
	want := p.Default.Level(84 * time.Hour)
	if got := s.CargoFactor(simAt); got != want {
		t.Errorf("scaled CargoFactor = %v, want %v", got, want)
	}
	// WindowWeight over the full 20-minute window equals the week's
	// integral compressed by the scale.
	weight := s.WindowWeight(20 * time.Minute)
	wantWeight := p.Default.Integral(0, 7*Day) / 504
	if math.Abs(weight-wantWeight) > 1e-6*wantWeight {
		t.Errorf("scaled WindowWeight = %v, want %v", weight, wantWeight)
	}
}

func TestPlaceInWindowMonotoneAndProportional(t *testing.T) {
	p := Week()
	s := p.ForDevice("active", 17)
	window := 36 * time.Hour
	prev := time.Duration(-1)
	for u := 0.0; u < 1; u += 0.001 {
		at := s.PlaceInWindow(u, window)
		if at < 0 || at >= window {
			t.Fatalf("PlaceInWindow(%v) = %v outside [0, %v)", u, at, window)
		}
		if at < prev {
			t.Fatalf("PlaceInWindow not monotone at u=%v: %v < %v", u, at, prev)
		}
		prev = at
	}
	// The u placing mass at the window midpoint splits the activity area
	// in half: Integral[0, mid) / Integral[0, window) ≈ u at midpoint.
	mid := window / 2
	wantU := s.curve.Integral(s.clock(0), s.clock(mid)) / s.curve.Integral(s.clock(0), s.clock(window))
	got := s.PlaceInWindow(wantU, window)
	if d := (got - mid); d < -time.Minute || d > time.Minute {
		t.Errorf("PlaceInWindow(%v) = %v, want ≈ %v", wantU, got, mid)
	}
}

func TestScaleBeatAndSchedule(t *testing.T) {
	// Without beat events ScaleBeat leaves heartbeat's own walk exactly.
	s := Week().ForDevice("moderate", 3)
	apps := heartbeat.DefaultTrio()
	horizon := 2 * time.Hour
	if got, want := heartbeat.Merge(apps, horizon, s.ScaleBeat), heartbeat.Merge(apps, horizon, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("no-event Merge diverged: %d vs %d beats", len(got), len(want))
	}

	// A factor-2 storm halves intervals that start inside it.
	p := Week()
	p.Events = []Event{{Name: "storm", At: 30 * time.Minute, Duration: 30 * time.Minute, BeatFactor: 2}}
	ss := p.ForDevice("moderate", 3)
	if got := ss.ScaleBeat(40*time.Minute, 300*time.Second); got != 150*time.Second {
		t.Errorf("ScaleBeat in storm = %v, want 150s", got)
	}
	if got := ss.ScaleBeat(10*time.Minute, 300*time.Second); got != 300*time.Second {
		t.Errorf("ScaleBeat outside storm = %v, want 300s", got)
	}
	stormy := heartbeat.Merge(apps, horizon, ss.ScaleBeat)
	calm := heartbeat.Merge(apps, horizon, nil)
	if len(stormy) <= len(calm) {
		t.Errorf("storm did not densify beats: %d vs %d", len(stormy), len(calm))
	}
	// Clamp: an absurd composed factor cannot stall the walk.
	if got := ss.ScaleBeat(40*time.Minute, time.Millisecond); got < time.Millisecond {
		t.Errorf("ScaleBeat clamp failed: %v", got)
	}
}

// TestArrivalsIntegrateCurveArea is the issue's property test: over any
// window, the expected arrival count of the thinned process equals the
// activity curve's area over that window divided by the mean gap.
func TestArrivalsIntegrateCurveArea(t *testing.T) {
	p := Week()
	p.Start = 30 * time.Hour
	p.Events = []Event{
		{Name: "storm", At: 40 * time.Hour, Duration: 2 * time.Hour, CargoFactor: 2.5},
	}
	s := p.ForDevice("active", 11)
	const (
		trials  = 400
		meanGap = 100 * time.Second
	)
	horizon := 24 * time.Hour
	// Sub-windows, including one straddling the storm (sim hours 10-12).
	windows := []struct{ from, to time.Duration }{
		{0, horizon},
		{2 * time.Hour, 8 * time.Hour},
		{9 * time.Hour, 13 * time.Hour},
	}
	counts := make([]float64, len(windows))
	for trial := 0; trial < trials; trial++ {
		src := randx.New(int64(1000 + trial))
		arr := s.AppendArrivals(nil, src, meanGap, horizon)
		for wi, w := range windows {
			for _, at := range arr {
				if at >= w.from && at < w.to {
					counts[wi]++
				}
			}
		}
	}
	for wi, w := range windows {
		// Expected count = ∫ CargoFactor dt / meanGap, assembled from the
		// curve integral and the storm's constant multiplier window.
		expect := 0.0
		const step = time.Minute
		for at := w.from; at < w.to; at += step {
			expect += s.CargoFactor(at) * step.Seconds() / meanGap.Seconds()
		}
		got := counts[wi] / trials
		// 4 standard errors of the Poisson mean keeps flake odds ~1e-4.
		tol := 4 * math.Sqrt(expect/trials)
		if math.Abs(got-expect) > tol {
			t.Errorf("window [%v,%v): mean count %.2f, want %.2f ± %.2f", w.from, w.to, got, expect, tol)
		}
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	s := Week().ForDevice("moderate", 5)
	a := s.AppendArrivals(nil, randx.New(77), 50*time.Second, 6*time.Hour)
	b := s.AppendArrivals(nil, randx.New(77), 50*time.Second, 6*time.Hour)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Arrivals not deterministic for equal seeds")
	}
	if len(a) == 0 {
		t.Fatal("no arrivals over 6h at 50s mean gap")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
}

func TestArrivalsEdgeCases(t *testing.T) {
	s := Week().ForDevice("moderate", 5)
	if got := s.AppendArrivals(nil, randx.New(1), 0, time.Hour); got != nil {
		t.Errorf("zero mean gap → %v arrivals", len(got))
	}
	if got := s.AppendArrivals(nil, randx.New(1), time.Second, 0); got != nil {
		t.Errorf("zero horizon → %v arrivals", len(got))
	}
}

func BenchmarkCurveLevel(b *testing.B) {
	p := Week()
	c := p.CurveFor("active")
	at := time.Duration(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Level(at)
		at += 13 * time.Minute
	}
}

func BenchmarkSamplerCargoFactor(b *testing.B) {
	p := Week()
	p.Events = []Event{
		{Name: "storm", At: 40 * time.Hour, Duration: 2 * time.Hour, CargoFactor: 2.5},
		{Name: "maint", At: 3 * time.Hour, Duration: time.Hour, Every: Day, CargoFactor: 0.1},
	}
	s := p.ForDevice("active", 11)
	at := time.Duration(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.CargoFactor(at)
		at += 13 * time.Minute
	}
}

func BenchmarkSamplerPlaceInWindow(b *testing.B) {
	s := Week().ForDevice("active", 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.PlaceInWindow(float64(i%1000)/1000, 36*time.Hour)
	}
}

func BenchmarkSamplerArrivals(b *testing.B) {
	s := Week().ForDevice("active", 11)
	src := randx.New(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.AppendArrivals(nil, src, 100*time.Second, 2*time.Hour)
	}
}
