package workload

import (
	"math"
	"testing"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/randx"
)

func TestSynthesizeSessionDiurnalFollowsCurve(t *testing.T) {
	// Under the week profile at scale 1, a session window over the deep
	// night trough must carry fewer events than one over the evening
	// peak, and all instants must stay inside the window.
	p, err := diurnal.ByName("week")
	if err != nil {
		t.Fatal(err)
	}
	window := 2 * time.Hour
	count := func(start time.Duration, seed int64) int {
		prof := *p
		prof.Start = start
		sam := prof.ForDevice("moderate", 1)
		recs := SynthesizeSession(randx.New(seed), "u", ClassActive, window, sam)
		for _, r := range recs {
			if r.At < 0 || r.At >= window {
				t.Fatalf("record at %v outside [0, %v)", r.At, window)
			}
		}
		return len(recs)
	}
	night, evening := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		night += count(3*time.Hour, seed)    // Monday 03:00-05:00, level ≈ 0.17
		evening += count(19*time.Hour, seed) // Monday 19:00-21:00, level ≈ 1.75
	}
	if night*3 >= evening {
		t.Errorf("night sessions not sparse: %d night vs %d evening events", night, evening)
	}
}

func TestGenerateDiurnalRateTracksCurveArea(t *testing.T) {
	p, err := diurnal.ByName("week")
	if err != nil {
		t.Fatal(err)
	}
	sam := p.ForDevice("moderate", 3)
	horizon := 24 * time.Hour
	specs := []CargoSpec{MailSpec()}
	total := 0
	const trials = 40
	for seed := int64(0); seed < trials; seed++ {
		pkts, err := Generate(randx.New(100+seed), specs, horizon, sam)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(pkts); i++ {
			if pkts[i].ArrivedAt < pkts[i-1].ArrivedAt {
				t.Fatalf("packets not sorted at %d", i)
			}
			if pkts[i].ID != i {
				t.Fatalf("packet %d has ID %d", i, pkts[i].ID)
			}
		}
		total += len(pkts)
	}
	expect := sam.WindowWeight(horizon) / specs[0].MeanInterArrival.Seconds()
	got := float64(total) / trials
	tol := 4 * math.Sqrt(expect/trials)
	if math.Abs(got-expect) > tol {
		t.Errorf("mean count %.1f, want %.1f ± %.1f", got, expect, tol)
	}
}

func TestGenerateDiurnalValidatesSpecs(t *testing.T) {
	p, _ := diurnal.ByName("flat")
	sam := p.ForDevice("moderate", 1)
	bad := MailSpec()
	bad.MeanInterArrival = 0
	if _, err := Generate(randx.New(1), []CargoSpec{bad}, time.Hour, sam); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
