package radio

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestDRXPresetsValidate(t *testing.T) {
	for name, m := range map[string]DRXModel{"lte-drx": LTEDRX(), "nr-drx": NR5GDRX()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	// The cross-generation story: each generation's full tail is cheaper
	// than the last (3G ≈ 10.4 J, LTE DRX ≈ 5.3 J, NR DRX ≈ 2 J).
	g3 := GalaxyS43G().FullTailEnergy()
	lte := LTEDRX().FullTailEnergy()
	nr := NR5GDRX().FullTailEnergy()
	if !(nr < lte && lte < g3) {
		t.Errorf("tail energies not ordered: 3g=%v lte-drx=%v nr-drx=%v", g3, lte, nr)
	}
	if lte < 4.5 || lte > 6 {
		t.Errorf("LTE DRX full tail %v J outside [4.5, 6]", lte)
	}
	if nr < 1.5 || nr > 2.5 {
		t.Errorf("NR DRX full tail %v J outside [1.5, 2.5]", nr)
	}
}

// TestDRXTailEnergyMatchesRiemann pins the closed-form tail integral to
// a fine numeric integration of Power(TailStateAt(t)).
func TestDRXTailEnergyMatchesRiemann(t *testing.T) {
	for _, m := range []DRXModel{LTEDRX(), NR5GDRX()} {
		gaps := []time.Duration{
			0,
			m.InactivityTimer / 2,
			m.InactivityTimer,
			m.InactivityTimer + m.ShortCycle/2,
			m.InactivityTimer + m.shortSpan() + 50*time.Millisecond,
			m.ReleaseAfter / 2,
			m.ReleaseAfter,
			m.ReleaseAfter + time.Minute, // clamps at release
		}
		const step = 100 * time.Microsecond
		for _, gap := range gaps {
			end := gap
			if end > m.ReleaseAfter {
				end = m.ReleaseAfter
			}
			want := 0.0
			for at := time.Duration(0); at < end; at += step {
				want += m.Power(m.TailStateAt(at)) * step.Seconds()
			}
			got := m.TailEnergy(gap)
			if math.Abs(got-want) > 1e-3*math.Max(1, want) {
				t.Errorf("TailEnergy(%v) = %v, want ≈ %v", gap, got, want)
			}
		}
	}
}

func TestDRXTailEnergyMonotoneInGap(t *testing.T) {
	m := LTEDRX()
	prev := -1.0
	for gap := time.Duration(0); gap <= m.ReleaseAfter+time.Second; gap += 7 * time.Millisecond {
		e := m.TailEnergy(gap)
		if e < prev {
			t.Fatalf("TailEnergy not monotone at gap %v: %v < %v", gap, e, prev)
		}
		prev = e
	}
}

// TestDRXEnergyMonotoneInInactivityTimer is the issue's property test:
// with the release timer fixed, lengthening the inactivity timer can
// only increase tail energy (continuous reception replaces duty-cycled
// sleep), for every gap length.
func TestDRXEnergyMonotoneInInactivityTimer(t *testing.T) {
	base := LTEDRX()
	maxTi := base.ReleaseAfter - base.shortSpan()
	gaps := []time.Duration{
		50 * time.Millisecond, 300 * time.Millisecond, time.Second,
		3 * time.Second, base.ReleaseAfter, 30 * time.Second,
	}
	prev := make([]float64, len(gaps))
	for i := range prev {
		prev[i] = -1
	}
	for ti := time.Duration(0); ti <= maxTi; ti += 100 * time.Millisecond {
		m := base
		m.InactivityTimer = ti
		if err := m.Validate(); err != nil {
			t.Fatalf("Ti=%v: %v", ti, err)
		}
		for gi, gap := range gaps {
			e := m.TailEnergy(gap)
			if e < prev[gi]-1e-12 {
				t.Fatalf("gap %v: energy not monotone in Ti at %v: %v < %v", gap, ti, e, prev[gi])
			}
			prev[gi] = e
		}
	}
	// And through the timeline fold: a heartbeat train's total energy is
	// monotone in the inactivity timer too.
	var tl Timeline
	for i := 0; i < 20; i++ {
		if err := tl.Append(Transmission{
			Start: time.Duration(i) * 137 * time.Second, TxTime: 200 * time.Millisecond, Kind: TxHeartbeat,
		}); err != nil {
			t.Fatal(err)
		}
	}
	horizon := 50 * time.Minute
	prevTotal := -1.0
	for ti := time.Duration(0); ti <= maxTi; ti += 500 * time.Millisecond {
		m := base
		m.InactivityTimer = ti
		total := tl.AccountEnergyModel(m, horizon).Total()
		if total < prevTotal-1e-12 {
			t.Fatalf("timeline energy not monotone in Ti at %v: %v < %v", ti, total, prevTotal)
		}
		prevTotal = total
	}
}

func TestDRXTailStateAtBoundaries(t *testing.T) {
	m := LTEDRX()
	shortEnd := m.InactivityTimer + m.shortSpan()
	cases := []struct {
		at   time.Duration
		want State
	}{
		{-time.Millisecond, StateTransmitting},
		{0, StateDRXActive},
		{m.InactivityTimer - time.Nanosecond, StateDRXActive},
		{m.InactivityTimer, StateDRXOn},
		{m.InactivityTimer + m.OnDuration, StateDRXSleep},
		{m.InactivityTimer + m.ShortCycle, StateDRXOn}, // second short cycle
		{shortEnd, StateDRXOn},                         // first long cycle
		{shortEnd + m.OnDuration, StateDRXSleep},
		{m.ReleaseAfter - time.Nanosecond, StateDRXSleep},
		{m.ReleaseAfter, StatePSM},
		{time.Hour, StatePSM},
	}
	for _, tc := range cases {
		if got := m.TailStateAt(tc.at); got != tc.want {
			t.Errorf("TailStateAt(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

// TestDRXMachineAgreesWithModel drives the live machine over the LTE DRX
// model through a transmission schedule and checks its state at a dense
// sweep of instants against TailStateAt relative to the last
// transmission end.
func TestDRXMachineAgreesWithModel(t *testing.T) {
	model := LTEDRX()
	dm := NewMachine(model)
	var last Transition
	dm.Subscribe(func(tr Transition) {
		if tr.At < last.At {
			t.Fatalf("transition at %v after one at %v", tr.At, last.At)
		}
		if tr.From == tr.To {
			t.Fatalf("self transition %v at %v", tr.To, tr.At)
		}
		last = tr
	})

	if got := dm.State(0); got != StatePSM {
		t.Fatalf("initial state %v, want PSM", got)
	}
	txs := []struct{ start, txTime time.Duration }{
		{1 * time.Second, 150 * time.Millisecond},
		{2 * time.Second, 80 * time.Millisecond},   // lands inside previous tail
		{20 * time.Second, 120 * time.Millisecond}, // after full release
	}
	txEnd := time.Duration(-1)
	step := 13 * time.Millisecond
	now := time.Duration(0)
	for _, tx := range txs {
		for ; now < tx.start; now += step {
			got := dm.State(now)
			var want State
			if txEnd < 0 {
				want = StatePSM
			} else {
				want = model.TailStateAt(now - txEnd)
			}
			if got != want {
				t.Fatalf("state at %v = %v, want %v (txEnd %v)", now, got, want, txEnd)
			}
			if p, w := dm.Power(now), model.Power(want); p != w {
				t.Fatalf("power at %v = %v, want %v", now, p, w)
			}
		}
		dm.BeginTransmission(tx.start)
		if got := dm.State(tx.start); got != StateTransmitting {
			t.Fatalf("not transmitting at %v: %v", tx.start, got)
		}
		txEnd = tx.start + tx.txTime
		dm.EndTransmission(txEnd)
		now = txEnd
	}
	for ; now < 40*time.Second; now += step {
		if got, want := dm.State(now), model.TailStateAt(now-txEnd); got != want {
			t.Fatalf("state at %v = %v, want %v", now, got, want)
		}
	}
	if dm.Transitions() == 0 {
		t.Fatal("no transitions recorded")
	}
}

func TestDRXMachineNestedTransmissions(t *testing.T) {
	dm := NewMachine(LTEDRX())
	dm.BeginTransmission(time.Second)
	dm.BeginTransmission(2 * time.Second)
	dm.EndTransmission(3 * time.Second)
	if got := dm.State(3 * time.Second); got != StateTransmitting {
		t.Fatalf("left transmitting with one nested begin open: %v", got)
	}
	dm.EndTransmission(4 * time.Second)
	if got := dm.State(4 * time.Second); got != StateDRXActive {
		t.Fatalf("after final end: %v, want ACTIVE", got)
	}
}

func TestModelByName(t *testing.T) {
	for _, name := range append(ModelNames(), "3g-rrc", "5g-drx") {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatalf("ModelByName(%q): %v", name, err)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("model %q invalid: %v", name, err)
		}
	}
	if _, err := ModelByName("4g"); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("ModelByName(4g) err = %v", err)
	}
}

func TestDRXValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*DRXModel)
		msg  string
	}{
		{"no tx power", func(m *DRXModel) { m.PTx = 0 }, "transmit power"},
		{"ordering", func(m *DRXModel) { m.PSleep = m.PTx * 2 }, "PTx ≥ PCont"},
		{"neg timer", func(m *DRXModel) { m.InactivityTimer = -time.Second }, "inactivity timer"},
		{"neg cycles", func(m *DRXModel) { m.ShortCycles = -1 }, "short-cycle count"},
		{"zero short", func(m *DRXModel) { m.ShortCycle = 0 }, "short cycle"},
		{"zero long", func(m *DRXModel) { m.LongCycle = 0 }, "long cycle"},
		{"zero on", func(m *DRXModel) { m.OnDuration = 0 }, "on-duration"},
		{"wide on", func(m *DRXModel) { m.OnDuration = m.LongCycle * 2 }, "exceeds a cycle"},
		{"short release", func(m *DRXModel) { m.ReleaseAfter = m.InactivityTimer }, "release timer"},
	}
	for _, tc := range cases {
		m := LTEDRX()
		tc.mut(&m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.msg)
		}
	}
}

func TestDRXStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		StateDRXActive: "ACTIVE",
		StateDRXOn:     "DRX(on)",
		StateDRXSleep:  "DRX(sleep)",
		StatePSM:       "PSM",
	} {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func BenchmarkDRXTailEnergy(b *testing.B) {
	m := LTEDRX()
	gap := 5 * time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.TailEnergy(gap)
	}
}

func BenchmarkDRXMachine(b *testing.B) {
	model := LTEDRX()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dm := NewMachine(model)
		now := time.Duration(0)
		for tx := 0; tx < 8; tx++ {
			dm.BeginTransmission(now)
			now += 100 * time.Millisecond
			dm.EndTransmission(now)
			now += 15 * time.Second
			_ = dm.State(now)
		}
	}
}
