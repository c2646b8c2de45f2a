package battery

import (
	"math"
	"testing"
	"time"
)

func TestCapacityJoules(t *testing.T) {
	b := GalaxyS4()
	// 1.7 Ah × 3600 s × 3.7 V = 22644 J.
	if got := b.CapacityJoules(); math.Abs(got-22644) > 1e-9 {
		t.Fatalf("capacity = %v J, want 22644", got)
	}
}

func TestPaperSixPercentClaim(t *testing.T) {
	// §II-D: >12 heartbeats/hour at ~10.91 J per tail over 10 hours on the
	// 1700 mAh battery is "at least 6% of battery capacity".
	b := GalaxyS4()
	perHour := 12 * 10.91
	loss := b.StandbyLoss(perHour, time.Hour, 10*time.Hour)
	if loss < 0.055 || loss > 0.07 {
		t.Fatalf("one-app heartbeat drain = %.1f%%, paper says ~6%%", loss*100)
	}
}

func TestDrainFraction(t *testing.T) {
	b := GalaxyS4()
	if got := b.DrainFraction(22644); math.Abs(got-1) > 1e-12 {
		t.Fatalf("full capacity drain = %v, want 1", got)
	}
	if got := b.DrainFraction(0); got != 0 {
		t.Fatalf("zero drain = %v", got)
	}
}

func TestStandbyLossZeroMeasured(t *testing.T) {
	if got := GalaxyS4().StandbyLoss(100, 0, time.Hour); got != 0 {
		t.Fatalf("loss with zero measurement = %v", got)
	}
}
