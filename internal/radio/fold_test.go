package radio

import (
	"math/rand"
	"testing"
	"time"
)

// refAccountEnergy is the indexed fold AccountEnergy ran before
// EnergyFold, kept verbatim as the reference the streamed fold must
// reproduce bit for bit.
func refAccountEnergy[M Model](txs []Transmission, m M, horizon time.Duration) Energy {
	var e Energy
	for i, tx := range txs {
		txE := m.TransmitEnergy(tx.TxTime)

		var gap time.Duration
		if i+1 < len(txs) {
			gap = txs[i+1].Start - tx.End()
		} else {
			gap = horizon - tx.End()
			if gap > m.TailTime() {
				gap = m.TailTime()
			}
		}
		tailE := m.TailEnergy(gap)

		e.Transmit += txE
		e.Tail += tailE
		switch tx.Kind {
		case TxHeartbeat:
			e.HeartbeatShare += txE + tailE
		case TxData:
			e.DataShare += txE + tailE
		}
	}
	return e
}

// tailBoundaries lists the offsets after a transmission at which m's tail
// changes power.
func tailBoundaries(t *testing.T, m Model) []time.Duration {
	switch m := m.(type) {
	case PowerModel:
		return []time.Duration{m.DeltaD, m.DeltaD + m.DeltaF}
	case DRXModel:
		b := []time.Duration{m.InactivityTimer, m.InactivityTimer + m.OnDuration, m.ReleaseAfter}
		for i := 1; i <= m.ShortCycles; i++ {
			b = append(b, m.InactivityTimer+time.Duration(i)*m.ShortCycle)
		}
		return append(b, m.InactivityTimer+m.shortSpan()+m.LongCycle+m.OnDuration)
	default:
		t.Fatalf("no tail boundaries for %T", m)
		return nil
	}
}

// TestEnergyFoldMatchesReference streams random timelines through
// EnergyFold.Append and through AccountEnergy/AccountEnergyModel, under
// every named radio model, and requires the reference fold's Energy bit
// for bit: back-to-back transmissions, gaps on and 1 ns either side of
// each tail boundary, horizons that cut the last tail, and the empty
// timeline.
func TestEnergyFoldMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, name := range ModelNames() {
		m, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var gaps []time.Duration
		for _, b := range append(tailBoundaries(t, m), 0, m.TailTime()) {
			gaps = append(gaps, b-1, b, b+1)
		}
		for trial := 0; trial < 2000; trial++ {
			var txs []Transmission
			at := time.Duration(rng.Int63n(int64(time.Minute)))
			for n := rng.Intn(8); len(txs) < n; {
				tx := Transmission{
					Start:  at,
					TxTime: time.Duration(rng.Int63n(int64(2 * time.Second))),
					Size:   int64(rng.Intn(4096)),
					Kind:   TxKind(1 + rng.Intn(2)),
				}
				txs = append(txs, tx)
				gap := time.Duration(rng.Int63n(int64(2 * m.TailTime())))
				if rng.Intn(2) == 0 {
					gap = max(gaps[rng.Intn(len(gaps))], 0)
				}
				at = tx.End() + gap
			}
			// The horizon lands anywhere from before the last end to past a
			// full tail, often on a boundary of the last tail.
			horizon := at + time.Duration(rng.Int63n(int64(2*m.TailTime()))) - m.TailTime()/2
			if len(txs) > 0 && rng.Intn(2) == 0 {
				horizon = txs[len(txs)-1].End() + gaps[rng.Intn(len(gaps))]
			}

			want := refAccountEnergy(txs, m, horizon)
			f := NewEnergyFold(m)
			tl := &Timeline{}
			for _, tx := range txs {
				if err := f.Append(tx); err != nil {
					t.Fatal(err)
				}
				if err := tl.Append(tx); err != nil {
					t.Fatal(err)
				}
			}
			if got := f.Energy(horizon); got != want {
				t.Fatalf("%s trial %d: fold %+v, want %+v", name, trial, got, want)
			}
			if got := f.Energy(horizon); got != want {
				t.Fatalf("%s trial %d: second Energy call %+v, want %+v", name, trial, got, want)
			}
			if got := tl.AccountEnergyModel(m, horizon); got != want {
				t.Fatalf("%s trial %d: AccountEnergyModel %+v, want %+v", name, trial, got, want)
			}
			if pm, ok := m.(PowerModel); ok {
				if got := tl.AccountEnergy(pm, horizon); got != want {
					t.Fatalf("%s trial %d: AccountEnergy %+v, want %+v", name, trial, got, want)
				}
			}
		}
	}
}

// TestEnergyFoldAppendErrors checks that the fold refuses exactly what
// Timeline.Append refuses, with the same message.
func TestEnergyFoldAppendErrors(t *testing.T) {
	first := Transmission{Start: 10 * time.Second, TxTime: time.Second, Kind: TxData}
	for _, tx := range []Transmission{
		{Start: 20 * time.Second, TxTime: -time.Nanosecond, Kind: TxData},
		{Start: 11*time.Second - 1, TxTime: time.Second, Kind: TxData},
		{Start: 11 * time.Second, TxTime: 0, Kind: TxHeartbeat},
		{Start: 5 * time.Second, TxTime: time.Second, Kind: TxData},
	} {
		f := NewEnergyFold(GalaxyS43G())
		tl := &Timeline{}
		if err := f.Append(first); err != nil {
			t.Fatal(err)
		}
		if err := tl.Append(first); err != nil {
			t.Fatal(err)
		}
		fErr, tlErr := f.Append(tx), tl.Append(tx)
		if (fErr == nil) != (tlErr == nil) || (fErr != nil && fErr.Error() != tlErr.Error()) {
			t.Errorf("Append(%+v): fold %v, timeline %v", tx, fErr, tlErr)
		}
	}
	f := NewEnergyFold(GalaxyS43G())
	if err := f.Append(Transmission{TxTime: -1}); err == nil {
		t.Error("fold accepted a negative transmission time as its first transmission")
	}
}
