package bandwidth

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"etrain/internal/randx"
)

func TestNewTraceEmpty(t *testing.T) {
	if _, err := NewTrace(nil); !errors.Is(err, ErrEmptyTrace) {
		t.Fatalf("NewTrace(nil) err = %v, want ErrEmptyTrace", err)
	}
}

func TestNewTraceSanitizesNaNAndInf(t *testing.T) {
	tr, err := NewTrace([]float64{math.NaN(), math.Inf(1), math.Inf(-1)})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tr.Samples() {
		if math.IsNaN(s) || s <= 0 {
			t.Fatalf("sample %d not sanitized: %v", i, s)
		}
	}
}

func TestNewTraceClampsFloor(t *testing.T) {
	tr, err := NewTrace([]float64{-5, 0, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.At(0); got < 1 {
		t.Fatalf("negative sample not clamped: %v", got)
	}
	if got := tr.At(2 * time.Second); got != 1000 {
		t.Fatalf("sample[2] = %v, want 1000", got)
	}
}

func TestAtWrapsAround(t *testing.T) {
	tr, err := NewTrace([]float64{1000, 2000, 3000})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.At(4 * time.Second); got != 2000 {
		t.Fatalf("At(4s) = %v, want wrap to sample[1] = 2000", got)
	}
	if got := tr.At(-time.Second); got != 1000 {
		t.Fatalf("At(-1s) = %v, want clamp to sample[0]", got)
	}
}

func TestStats(t *testing.T) {
	tr, err := NewTrace([]float64{1000, 2000, 3000})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Mean(); got != 2000 {
		t.Fatalf("Mean = %v, want 2000", got)
	}
}

func TestSamplesReturnsCopy(t *testing.T) {
	tr, err := NewTrace([]float64{1000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Samples()
	s[0] = 9e9
	if tr.At(0) == 9e9 {
		t.Fatal("Samples leaked internal state")
	}
}

func TestTransmitTimeConstantBandwidth(t *testing.T) {
	tr, err := Constant(1000, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.TransmitTime(0, 500)
	if got != 500*time.Millisecond {
		t.Fatalf("TransmitTime(500B @1KB/s) = %v, want 500ms", got)
	}
}

func TestTransmitTimeSpansSamples(t *testing.T) {
	// 1000 B/s for 1 s, then 4000 B/s: 3000 bytes takes 1 s + 0.5 s.
	tr, err := NewTrace([]float64{1000, 4000, 4000})
	if err != nil {
		t.Fatal(err)
	}
	got := tr.TransmitTime(0, 3000)
	if got != 1500*time.Millisecond {
		t.Fatalf("TransmitTime = %v, want 1.5s", got)
	}
}

func TestTransmitTimeMidSampleStart(t *testing.T) {
	tr, err := Constant(1000, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	got := tr.TransmitTime(250*time.Millisecond, 1000)
	if got != time.Second {
		t.Fatalf("TransmitTime mid-sample = %v, want 1s", got)
	}
}

func TestTransmitTimeZeroSize(t *testing.T) {
	tr, err := Constant(1000, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.TransmitTime(0, 0); got != 0 {
		t.Fatalf("TransmitTime(0 bytes) = %v, want 0", got)
	}
}

func TestConstantRejectsNonPositiveDuration(t *testing.T) {
	if _, err := Constant(1000, 0); err == nil {
		t.Fatal("Constant with zero duration succeeded, want error")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(randx.New(1), 300*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(randx.New(1), 300*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Samples(), b.Samples()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("synthetic traces diverged at sample %d", i)
		}
	}
}

func TestSynthesizeLengthAndPositivity(t *testing.T) {
	tr, err := Synthesize(randx.New(2), 7200*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 7200 {
		t.Fatalf("Len = %d, want 7200", tr.Len())
	}
	if m := slices.Min(tr.Samples()); m <= 0 {
		t.Fatalf("min sample = %v, want > 0", m)
	}
}

func TestSynthesizeRealisticRange(t *testing.T) {
	tr, err := Synthesize(randx.New(3), 7200*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	mean := tr.Mean()
	// The default regimes mix 90–320 KB/s means; the blended mean should be
	// in a plausible 3G uplink range.
	if mean < 60e3 || mean > 400e3 {
		t.Fatalf("synthetic mean = %.0f B/s, want within [60k, 400k]", mean)
	}
	acc := 0.0
	for _, s := range tr.Samples() {
		acc += (s - mean) * (s - mean)
	}
	if std := math.Sqrt(acc / 7200); std < 10e3 {
		t.Fatalf("synthetic trace suspiciously smooth: std = %.0f", std)
	}
}

func TestSynthesizeCustomRegime(t *testing.T) {
	regs := []Regime{{Name: "lab", Mean: 50e3, StdDev: 1e3, Corr: 0.9, MeanDwell: time.Hour}}
	tr, err := Synthesize(randx.New(4), 600*time.Second, regs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.Mean()-50e3) > 5e3 {
		t.Fatalf("single-regime mean = %.0f, want ~50000", tr.Mean())
	}
}

func TestEstimatorNoiseAndLag(t *testing.T) {
	tr, err := NewTrace([]float64{1000, 100000, 1000, 1000})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(tr, randx.New(5), time.Second, 0)
	// With zero noise the estimate equals the lagged truth.
	if got := est.Estimate(2 * time.Second); got != 100000 {
		t.Fatalf("lagged estimate = %v, want 100000 (value at t-1)", got)
	}
}

func TestEstimatorNoisy(t *testing.T) {
	tr, err := Constant(100e3, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(tr, randx.New(6), time.Second, 0.3)
	varies := false
	first := est.Estimate(10 * time.Second)
	for i := 0; i < 20; i++ {
		if est.Estimate(10*time.Second) != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("noisy estimator returned constant estimates")
	}
}

// Property: TransmitTime is non-negative and monotone in size.
func TestTransmitTimeMonotoneProperty(t *testing.T) {
	tr, err := Synthesize(randx.New(7), 600*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(startMillis uint32, a, b uint16) bool {
		start := time.Duration(startMillis%600000) * time.Millisecond
		sa, sb := int64(a), int64(b)
		if sa > sb {
			sa, sb = sb, sa
		}
		ta := tr.TransmitTime(start, sa)
		tb := tr.TransmitTime(start, sb)
		return ta >= 0 && tb >= ta
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
