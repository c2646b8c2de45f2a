package radio

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func model() PowerModel { return GalaxyS43G() }

func TestFullTailEnergyMatchesPaper(t *testing.T) {
	m := model()
	got := m.FullTailEnergy()
	// 0.7·10 + 0.45·7.5 = 10.375 J; the paper measured ≈10.91 J.
	if math.Abs(got-10.375) > 1e-9 {
		t.Fatalf("FullTailEnergy = %v, want 10.375", got)
	}
	if math.Abs(got-10.91) > 1.0 {
		t.Fatalf("FullTailEnergy = %v too far from the paper's 10.91 J", got)
	}
}

func TestTailEnergyPiecewise(t *testing.T) {
	m := model()
	tests := []struct {
		name string
		gap  time.Duration
		want float64
	}{
		{"non-positive gap", 0, 0},
		{"negative gap", -time.Second, 0},
		{"inside DCH", 4 * time.Second, 0.7 * 4},
		{"exactly deltaD", 10 * time.Second, 7.0},
		{"inside FACH", 12 * time.Second, 7.0 + 0.45*2},
		{"exactly tail end", 17500 * time.Millisecond, 10.375},
		{"beyond tail", time.Minute, 10.375},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.TailEnergy(tt.gap); math.Abs(got-tt.want) > 1e-9 {
				t.Fatalf("TailEnergy(%v) = %v, want %v", tt.gap, got, tt.want)
			}
		})
	}
}

func TestTailEnergyProperties(t *testing.T) {
	m := model()
	// Monotone non-decreasing, bounded by the full tail, continuous.
	prop := func(aMillis, bMillis uint16) bool {
		a := time.Duration(aMillis) * time.Millisecond
		b := time.Duration(bMillis) * time.Millisecond
		if a > b {
			a, b = b, a
		}
		ea, eb := m.TailEnergy(a), m.TailEnergy(b)
		if ea < 0 || eb < ea {
			return false
		}
		return eb <= m.FullTailEnergy()+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTailEnergyContinuity(t *testing.T) {
	m := model()
	eps := time.Millisecond
	for _, at := range []time.Duration{m.DeltaD, m.TailTime()} {
		lo, hi := m.TailEnergy(at-eps), m.TailEnergy(at+eps)
		if math.Abs(hi-lo) > 0.01 {
			t.Fatalf("TailEnergy discontinuous at %v: %v -> %v", at, lo, hi)
		}
	}
}

func TestTailStateAt(t *testing.T) {
	m := model()
	tests := []struct {
		since time.Duration
		want  State
	}{
		{-time.Second, StateTransmitting},
		{0, StateDCH},
		{9 * time.Second, StateDCH},
		{10 * time.Second, StateFACH},
		{17 * time.Second, StateFACH},
		{17500 * time.Millisecond, StateIdle},
		{time.Hour, StateIdle},
	}
	for _, tt := range tests {
		if got := m.TailStateAt(tt.since); got != tt.want {
			t.Fatalf("TailStateAt(%v) = %v, want %v", tt.since, got, tt.want)
		}
	}
}

func TestPowerByState(t *testing.T) {
	m := model()
	if m.Power(StateDCH) != 0.7 || m.Power(StateTransmitting) != 0.7 {
		t.Fatal("DCH power wrong")
	}
	if m.Power(StateFACH) != 0.45 {
		t.Fatal("FACH power wrong")
	}
	if m.Power(StateIdle) != 0 {
		t.Fatal("IDLE power must be the zero baseline")
	}
}

func TestAlternativeRadioModels(t *testing.T) {
	lte := LTE()
	if err := lte.Validate(); err != nil {
		t.Fatalf("LTE model invalid: %v", err)
	}
	wifi := WiFi()
	if err := wifi.Validate(); err != nil {
		t.Fatalf("WiFi model invalid: %v", err)
	}
	// LTE's tail is hotter than 3G's; WiFi's is negligible.
	s4 := GalaxyS43G()
	if lte.FullTailEnergy() <= s4.FullTailEnergy() {
		t.Fatalf("LTE tail %.2f J not above 3G's %.2f J", lte.FullTailEnergy(), s4.FullTailEnergy())
	}
	if wifi.FullTailEnergy() > 0.2 {
		t.Fatalf("WiFi tail %.3f J suspiciously large", wifi.FullTailEnergy())
	}
	if wifi.TailTime() >= time.Second {
		t.Fatalf("WiFi tail time %v should be sub-second", wifi.TailTime())
	}
}

func TestValidate(t *testing.T) {
	if err := model().Validate(); err != nil {
		t.Fatalf("paper model invalid: %v", err)
	}
	bad := PowerModel{PD: 0.1, PF: 0.5, DeltaD: time.Second, DeltaF: time.Second}
	if err := bad.Validate(); err == nil {
		t.Fatal("PF > PD accepted")
	}
	neg := PowerModel{PD: 0.7, PF: 0.45, DeltaD: -time.Second}
	if err := neg.Validate(); err == nil {
		t.Fatal("negative deltaD accepted")
	}
	promo := GalaxyS43G()
	promo.PromotionDelay = -2 * time.Second
	if err := promo.Validate(); err == nil {
		t.Fatal("negative promotion delay accepted")
	}
}

func TestStateStrings(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{StateIdle, "IDLE"}, {StateFACH, "FACH"}, {StateDCH, "DCH"},
		{StateTransmitting, "DCH(tx)"}, {State(9), "radio.State(9)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Fatalf("State(%d).String() = %q, want %q", int(tt.s), got, tt.want)
		}
	}
	if TxHeartbeat.String() != "heartbeat" || TxData.String() != "data" {
		t.Fatal("TxKind strings wrong")
	}
	if TxKind(9).String() != "radio.TxKind(9)" {
		t.Fatal("unknown TxKind string wrong")
	}
}

func TestTimelineAppendOrdering(t *testing.T) {
	var tl Timeline
	if err := tl.Append(Transmission{Start: 10 * time.Second, TxTime: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := tl.Append(Transmission{Start: 10500 * time.Millisecond}); err == nil {
		t.Fatal("overlapping transmission accepted")
	}
	if err := tl.Append(Transmission{Start: 11 * time.Second, TxTime: -time.Second}); err == nil {
		t.Fatal("negative duration accepted")
	}
	if err := tl.Append(Transmission{Start: 11 * time.Second, TxTime: time.Second}); err != nil {
		t.Fatalf("back-to-back transmission rejected: %v", err)
	}
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
	if got := tl.BusyUntil(); got != 12*time.Second {
		t.Fatalf("BusyUntil = %v, want 12s", got)
	}
}

func TestAccountEnergySingleTransmission(t *testing.T) {
	m := model()
	var tl Timeline
	if err := tl.Append(Transmission{Start: 0, TxTime: 2 * time.Second, Kind: TxData}); err != nil {
		t.Fatal(err)
	}
	e := tl.AccountEnergy(m, time.Hour)
	wantTx := 0.7 * 2
	if math.Abs(e.Transmit-wantTx) > 1e-9 {
		t.Fatalf("Transmit = %v, want %v", e.Transmit, wantTx)
	}
	if math.Abs(e.Tail-m.FullTailEnergy()) > 1e-9 {
		t.Fatalf("Tail = %v, want full tail %v", e.Tail, m.FullTailEnergy())
	}
	if math.Abs(e.DataShare-e.Total()) > 1e-9 {
		t.Fatalf("DataShare = %v, want all of %v", e.DataShare, e.Total())
	}
}

func TestAccountEnergyHorizonTruncatesLastTail(t *testing.T) {
	m := model()
	var tl Timeline
	if err := tl.Append(Transmission{Start: 0, TxTime: time.Second, Kind: TxHeartbeat}); err != nil {
		t.Fatal(err)
	}
	e := tl.AccountEnergy(m, 6*time.Second) // only 5 s of tail fit
	if math.Abs(e.Tail-0.7*5) > 1e-9 {
		t.Fatalf("truncated tail = %v, want 3.5", e.Tail)
	}
}

func TestAccountEnergyPiggybackSavesTail(t *testing.T) {
	m := model()
	// Scattered: two transmissions 60 s apart -> two full tails.
	var scattered Timeline
	mustAppend(t, &scattered, Transmission{Start: 0, TxTime: time.Second, Kind: TxData})
	mustAppend(t, &scattered, Transmission{Start: 60 * time.Second, TxTime: time.Second, Kind: TxData})
	// Aggregated: back-to-back -> one shared tail.
	var packed Timeline
	mustAppend(t, &packed, Transmission{Start: 0, TxTime: time.Second, Kind: TxData})
	mustAppend(t, &packed, Transmission{Start: time.Second, TxTime: time.Second, Kind: TxData})

	es := scattered.AccountEnergy(m, time.Hour)
	ep := packed.AccountEnergy(m, time.Hour)
	if ep.Total() >= es.Total() {
		t.Fatalf("aggregation saved nothing: packed %v >= scattered %v", ep.Total(), es.Total())
	}
	saved := es.Total() - ep.Total()
	if math.Abs(saved-m.FullTailEnergy()) > 1e-9 {
		t.Fatalf("aggregation saved %v, want one full tail %v", saved, m.FullTailEnergy())
	}
}

func TestAccountEnergyAttributionSums(t *testing.T) {
	m := model()
	var tl Timeline
	mustAppend(t, &tl, Transmission{Start: 0, TxTime: time.Second, Kind: TxHeartbeat})
	mustAppend(t, &tl, Transmission{Start: 5 * time.Second, TxTime: 2 * time.Second, Kind: TxData})
	mustAppend(t, &tl, Transmission{Start: 40 * time.Second, TxTime: time.Second, Kind: TxHeartbeat})
	e := tl.AccountEnergy(m, time.Hour)
	if math.Abs(e.HeartbeatShare+e.DataShare-e.Total()) > 1e-9 {
		t.Fatalf("shares %v + %v != total %v", e.HeartbeatShare, e.DataShare, e.Total())
	}
}

func TestAccountFastDormancy(t *testing.T) {
	m := model()
	m.PromotionDelay = 2 * time.Second
	var tl Timeline
	mustAppend(t, &tl, Transmission{Start: 0, TxTime: time.Second, Kind: TxData})
	mustAppend(t, &tl, Transmission{Start: 60 * time.Second, TxTime: time.Second, Kind: TxData})
	e := tl.AccountFastDormancy(m)
	want := 2 * (0.7*1 + 0.7*2) // tx + promotion per transmission
	if math.Abs(e.Total()-want) > 1e-9 {
		t.Fatalf("fast dormancy energy = %v, want %v", e.Total(), want)
	}
	if e.Tail != 0 {
		t.Fatalf("fast dormancy tail = %v, want 0", e.Tail)
	}
}

func TestStateAtWalksTimeline(t *testing.T) {
	m := model()
	var tl Timeline
	mustAppend(t, &tl, Transmission{Start: 10 * time.Second, TxTime: 2 * time.Second, Kind: TxData})
	tests := []struct {
		at   time.Duration
		want State
	}{
		{0, StateIdle},
		{10 * time.Second, StateTransmitting},
		{11 * time.Second, StateTransmitting},
		{12 * time.Second, StateDCH},
		{21 * time.Second, StateDCH},
		{23 * time.Second, StateFACH},
		{40 * time.Second, StateIdle},
	}
	for _, tt := range tests {
		if got := tl.StateAt(m, tt.at); got != tt.want {
			t.Fatalf("StateAt(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestPowerTraceMatchesAccounting(t *testing.T) {
	m := model()
	var tl Timeline
	mustAppend(t, &tl, Transmission{Start: 5 * time.Second, TxTime: time.Second, Kind: TxHeartbeat})
	mustAppend(t, &tl, Transmission{Start: 30 * time.Second, TxTime: 2 * time.Second, Kind: TxData})
	horizon := 2 * time.Minute
	samples := tl.PowerTrace(m, horizon, 10*time.Millisecond)
	integrated := 0.0 // each sample holds until the next
	for _, s := range samples {
		integrated += s.Watts * (10 * time.Millisecond).Seconds()
	}
	accounted := tl.AccountEnergy(m, horizon).Total()
	if math.Abs(integrated-accounted) > 0.05*accounted {
		t.Fatalf("integrated %v vs accounted %v differ by more than 5%%", integrated, accounted)
	}
}

func TestPowerTraceDefaultStep(t *testing.T) {
	var tl Timeline
	samples := tl.PowerTrace(model(), time.Second, 0)
	if len(samples) != 10 {
		t.Fatalf("default 100ms step should yield 10 samples over 1s, got %d", len(samples))
	}
}

func TestTransmissionsReturnsCopy(t *testing.T) {
	var tl Timeline
	mustAppend(t, &tl, Transmission{Start: 0, TxTime: time.Second, Kind: TxData})
	txs := tl.Transmissions()
	txs[0].Start = time.Hour
	if tl.Transmissions()[0].Start == time.Hour {
		t.Fatal("Transmissions leaked internal state")
	}
}

func TestTransmitEnergy(t *testing.T) {
	m := model()
	if got := m.TransmitEnergy(-time.Second); got != 0 {
		t.Fatalf("TransmitEnergy(-1s) = %v, want 0", got)
	}
	if got := m.TransmitEnergy(10 * time.Second); math.Abs(got-7.0) > 1e-9 {
		t.Fatalf("TransmitEnergy(10s) = %v, want 7", got)
	}
}

func mustAppend(t *testing.T, tl *Timeline, tx Transmission) {
	t.Helper()
	if err := tl.Append(tx); err != nil {
		t.Fatal(err)
	}
}
