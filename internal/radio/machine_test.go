package radio

import (
	"sort"
	"testing"
	"time"
)

func TestMachineWalk(t *testing.T) {
	m := NewMachine(GalaxyS43G())
	if got := m.State(0); got != StateIdle {
		t.Fatalf("initial state = %v", got)
	}
	m.BeginTransmission(5 * time.Second)
	if got := m.State(6 * time.Second); got != StateTransmitting {
		t.Fatalf("state during tx = %v", got)
	}
	m.EndTransmission(7 * time.Second)
	tests := []struct {
		at   time.Duration
		want State
	}{
		{7 * time.Second, StateDCH},
		{16 * time.Second, StateDCH},
		{17 * time.Second, StateFACH},
		{24 * time.Second, StateFACH},
		{24*time.Second + 500*time.Millisecond, StateIdle},
		{time.Minute, StateIdle},
	}
	for _, tt := range tests {
		if got := m.State(tt.at); got != tt.want {
			t.Fatalf("State(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestMachineTailResetOnNewTransmission(t *testing.T) {
	m := NewMachine(GalaxyS43G())
	m.BeginTransmission(0)
	m.EndTransmission(time.Second)
	// 12 s later the radio is in FACH; a new transmission re-promotes.
	m.BeginTransmission(13 * time.Second)
	if got := m.State(13 * time.Second); got != StateTransmitting {
		t.Fatalf("state = %v, want transmitting", got)
	}
	m.EndTransmission(14 * time.Second)
	// Full fresh tail from 14 s.
	if got := m.State(23 * time.Second); got != StateDCH {
		t.Fatalf("state 9s into fresh tail = %v, want DCH", got)
	}
}

func TestMachineListenersSeeTransitionsAtTrueInstants(t *testing.T) {
	m := NewMachine(GalaxyS43G())
	var transitions []Transition
	m.Subscribe(func(tr Transition) { transitions = append(transitions, tr) })
	m.BeginTransmission(0)
	m.EndTransmission(2 * time.Second)
	// Query far in the future: demotions must be emitted at their true
	// times, not the query time.
	m.State(time.Minute)

	want := []Transition{
		{At: 0, From: StateIdle, To: StateTransmitting},
		{At: 2 * time.Second, From: StateTransmitting, To: StateDCH},
		{At: 12 * time.Second, From: StateDCH, To: StateFACH},
		{At: 19500 * time.Millisecond, From: StateFACH, To: StateIdle},
	}
	if len(transitions) != len(want) {
		t.Fatalf("got %d transitions %v, want %d", len(transitions), transitions, len(want))
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %+v, want %+v", i, transitions[i], want[i])
		}
	}
	if m.Transitions() != len(want) {
		t.Fatalf("Transitions() = %d", m.Transitions())
	}
}

func TestMachineMatchesTimelineDerivation(t *testing.T) {
	// The live machine and the post-hoc timeline derivation must agree on
	// every sampled instant.
	model := GalaxyS43G()
	var tl Timeline
	txs := []Transmission{
		{Start: 3 * time.Second, TxTime: time.Second, Kind: TxHeartbeat},
		{Start: 9 * time.Second, TxTime: 2 * time.Second, Kind: TxData},
		{Start: 45 * time.Second, TxTime: 500 * time.Millisecond, Kind: TxData},
	}
	for _, tx := range txs {
		if err := tl.Append(tx); err != nil {
			t.Fatal(err)
		}
	}
	m := NewMachine(model)
	txIdx := 0
	var pendingEnd time.Duration
	inTx := false
	for at := time.Duration(0); at < 90*time.Second; at += 250 * time.Millisecond {
		// Feed machine events that occur before this sample.
		for {
			if inTx && pendingEnd <= at {
				m.EndTransmission(pendingEnd)
				inTx = false
				continue
			}
			if !inTx && txIdx < len(txs) && txs[txIdx].Start <= at {
				m.BeginTransmission(txs[txIdx].Start)
				pendingEnd = txs[txIdx].End()
				inTx = true
				txIdx++
				continue
			}
			break
		}
		live := m.State(at)
		derived := tl.StateAt(model, at)
		if live != derived {
			t.Fatalf("at %v: machine %v != timeline %v", at, live, derived)
		}
	}
}

func TestMachinePower(t *testing.T) {
	m := NewMachine(GalaxyS43G())
	m.BeginTransmission(0)
	if got := m.Power(0); got != 0.7 {
		t.Fatalf("tx power = %v", got)
	}
	m.EndTransmission(time.Second)
	if got := m.Power(30 * time.Second); got != 0 {
		t.Fatalf("idle power = %v", got)
	}
}

func TestMachineDefensiveNesting(t *testing.T) {
	m := NewMachine(GalaxyS43G())
	m.BeginTransmission(0)
	m.BeginTransmission(time.Second) // overlapping (defensive)
	m.EndTransmission(2 * time.Second)
	if got := m.State(2 * time.Second); got != StateTransmitting {
		t.Fatalf("state with one open tx = %v", got)
	}
	m.EndTransmission(3 * time.Second)
	if got := m.State(3 * time.Second); got != StateDCH {
		t.Fatalf("state after all tx end = %v", got)
	}
	// A stray extra EndTransmission must not underflow.
	m.EndTransmission(4 * time.Second)
	if got := m.State(5 * time.Second); got != StateDCH {
		t.Fatalf("state after stray end = %v", got)
	}
}

// TestMachineZeroLengthTailPhases runs the 3G machine with no DCH phase
// and with no FACH phase. At the transmission end its state is the one
// Timeline.StateAt derives, and between that end and the next begin no
// two transitions share an instant.
func TestMachineZeroLengthTailPhases(t *testing.T) {
	noDCH, noFACH := GalaxyS43G(), GalaxyS43G()
	noDCH.DeltaD, noFACH.DeltaF = 0, 0
	for _, model := range []PowerModel{noDCH, noFACH} {
		tx := Transmission{Start: time.Second, TxTime: time.Second, Kind: TxData}
		var tl Timeline
		if err := tl.Append(tx); err != nil {
			t.Fatal(err)
		}
		m := NewMachine(model)
		var trs []Transition
		m.Subscribe(func(tr Transition) { trs = append(trs, tr) })
		m.BeginTransmission(tx.Start)
		m.EndTransmission(tx.End())
		if got, want := m.State(tx.End()), tl.StateAt(model, tx.End()); got != want {
			t.Errorf("δD=%v δF=%v: state %v at the transmission end, timeline %v", model.DeltaD, model.DeltaF, got, want)
		}
		m.BeginTransmission(time.Minute)
		// trs[0] is the first begin and trs[len-1] the next one.
		for i := 2; i < len(trs)-1; i++ {
			if trs[i].At <= trs[i-1].At {
				t.Errorf("δD=%v δF=%v: %+v follows %+v", model.DeltaD, model.DeltaF, trs[i], trs[i-1])
			}
		}
	}
}

// TestMachineAgreesWithModel drives the live machine over every named
// model, the 3G model without a DCH or a FACH phase, and an LTE DRX model
// whose short cycles are all on-duration, through one schedule: a
// transmission, a stray end inside its tail, one starting inside that
// tail with a nested begin and end, and one after a full tail. It samples
// State and Power on and 1 ns either side of every tail boundary after
// each end, and on a 13 ms sweep, against TailStateAt since the last end
// (the idle baseline before the first) and, for a PowerModel,
// Timeline.StateAt. Every transition must move to the model's state at
// its instant, and between an end and the next begin the instants
// strictly increase.
func TestMachineAgreesWithModel(t *testing.T) {
	noDCH, noFACH := GalaxyS43G(), GalaxyS43G()
	noDCH.DeltaD, noFACH.DeltaF = 0, 0
	// Short cycles that are all on-duration put a boundary between two
	// cycles that leaves the state unchanged.
	seams := LTEDRX()
	seams.OnDuration = seams.ShortCycle
	type namedModel struct {
		name  string
		model Model
	}
	cases := []namedModel{{"3g-no-dch", noDCH}, {"3g-no-fach", noFACH}, {"lte-drx-seams", seams}}
	for _, name := range ModelNames() {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, namedModel{name, m})
	}
	for _, c := range cases {
		model := c.model
		t.Run(c.name, func(t *testing.T) {
			tail := model.TailTime()
			first := Transmission{Start: time.Second, TxTime: 150 * time.Millisecond}
			inside := Transmission{Start: first.End() + tail/2, TxTime: 80 * time.Millisecond}
			after := Transmission{Start: inside.End() + tail + time.Second, TxTime: 120 * time.Millisecond}
			txs := []Transmission{first, inside, after}
			var tl Timeline
			for _, tx := range txs {
				if err := tl.Append(tx); err != nil {
					t.Fatal(err)
				}
			}
			events := []struct {
				at    time.Duration
				begin bool
			}{
				{first.Start, true}, {first.End(), false},
				{first.End() + tail/4, false}, // stray
				{inside.Start, true}, {inside.Start + 20*time.Millisecond, true},
				{inside.Start + 40*time.Millisecond, false}, {inside.End(), false},
				{after.Start, true}, {after.End(), false},
			}
			idle := StateIdle
			if _, ok := model.(DRXModel); ok {
				idle = StatePSM
			}
			// stateAt is the model's state at t, with a transmission that
			// starts at t counted as begun if begun.
			stateAt := func(t time.Duration, begun bool) State {
				st := idle
				for _, tx := range txs {
					if t < tx.Start || (t == tx.Start && !begun) {
						break
					}
					if t < tx.End() {
						return StateTransmitting
					}
					st = model.TailStateAt(t - tx.End())
				}
				return st
			}

			var samples []time.Duration
			for at := time.Duration(0); at < after.End()+2*tail; at += 13 * time.Millisecond {
				samples = append(samples, at)
			}
			for _, tx := range txs {
				for _, b := range append(tailBoundaries(t, model), 0) {
					samples = append(samples, tx.End()+b-1, tx.End()+b, tx.End()+b+1)
				}
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

			m := NewMachine(model)
			var trs []Transition
			m.Subscribe(func(tr Transition) { trs = append(trs, tr) })
			ev := 0
			for _, now := range samples {
				for ; ev < len(events) && events[ev].at <= now; ev++ {
					if events[ev].begin {
						m.BeginTransmission(events[ev].at)
					} else {
						m.EndTransmission(events[ev].at)
					}
				}
				want := stateAt(now, true)
				if got := m.State(now); got != want {
					t.Fatalf("state at %v = %v, want %v", now, got, want)
				}
				if got := m.Power(now); got != model.Power(want) {
					t.Fatalf("power at %v = %v, want %v", now, got, model.Power(want))
				}
				if pm, ok := model.(PowerModel); ok {
					if got := tl.StateAt(pm, now); got != want {
						t.Fatalf("timeline state at %v = %v, want %v", now, got, want)
					}
				}
			}
			if ev != len(events) {
				t.Fatalf("%d of %d events fed", ev, len(events))
			}

			if m.Transitions() != len(trs) {
				t.Fatalf("Transitions() = %d, listener saw %d", m.Transitions(), len(trs))
			}
			from := idle
			for i, tr := range trs {
				if tr.From != from || tr.From == tr.To {
					t.Fatalf("transition %d %+v after a move to %v", i, tr, from)
				}
				if want := stateAt(tr.At, tr.To == StateTransmitting); tr.To != want {
					t.Fatalf("transition %d %+v, want a move to %v", i, tr, want)
				}
				if i > 0 {
					prev := trs[i-1]
					tied := prev.To == StateTransmitting || tr.To == StateTransmitting
					if tr.At < prev.At || (tr.At == prev.At && !tied) {
						t.Fatalf("transition %d %+v follows %+v", i, tr, prev)
					}
				}
				from = tr.To
			}
		})
	}
}
