package workload

import (
	"math"
	"testing"
	"time"

	"etrain/internal/randx"
)

func TestNewPopulationValidation(t *testing.T) {
	if _, err := NewPopulation(nil); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := NewPopulation([]ClassShare{{Class: ClassActive, Weight: 0}}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewPopulation([]ClassShare{{Class: ActivenessClass(9), Weight: 1}}); err == nil {
		t.Error("unknown class accepted")
	}
	if _, err := NewPopulation(DefaultMix()); err != nil {
		t.Errorf("default mix rejected: %v", err)
	}
}

func TestParseClass(t *testing.T) {
	for _, c := range []ActivenessClass{ClassActive, ClassModerate, ClassInactive} {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseClass("hyperactive"); err == nil {
		t.Error("unknown class parsed")
	}
}

// TestPopulationPickSharesConverge: deterministic identity-derived draws
// land in each class roughly proportionally to its weight.
func TestPopulationPickSharesConverge(t *testing.T) {
	pop, err := NewPopulation(DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	counts := make([]int, len(pop.shares))
	src := randx.New(42)
	for i := 0; i < n; i++ {
		idx, class := pop.Pick(src.Float64())
		if pop.shares[idx].Class != class {
			t.Fatalf("index %d disagrees with class %v", idx, class)
		}
		counts[idx]++
	}
	total := 0.0
	for _, s := range pop.shares {
		total += s.Weight
	}
	for i, s := range pop.shares {
		want := s.Weight / total
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("class %s share %.3f, want ~%.3f", s.Class, got, want)
		}
	}
}

func TestPopulationPickBoundaries(t *testing.T) {
	pop, err := NewPopulation([]ClassShare{
		{Class: ClassActive, Weight: 1},
		{Class: ClassInactive, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx, _ := pop.Pick(0); idx != 0 {
		t.Errorf("Pick(0) = %d, want 0", idx)
	}
	if idx, _ := pop.Pick(0.999999); idx != 1 {
		t.Errorf("Pick(~1) = %d, want 1", idx)
	}
	// Out-of-range draws clamp instead of panicking.
	if idx, _ := pop.Pick(-0.5); idx != 0 {
		t.Errorf("Pick(-0.5) = %d, want 0", idx)
	}
	if idx, _ := pop.Pick(1.5); idx != 1 {
		t.Errorf("Pick(1.5) = %d, want 1", idx)
	}
}

// TestSynthesizeSessionMatchesSynthesizeUser pins the bit-compatibility
// contract: at the paper's 10-minute window the generalized synthesizer
// consumes the same draws and returns the same trace.
func TestSynthesizeSessionMatchesSynthesizeUser(t *testing.T) {
	for _, class := range []ActivenessClass{ClassActive, ClassModerate, ClassInactive} {
		a := SynthesizeUser(randx.New(7), "u", class)
		b := SynthesizeSession(randx.New(7), "u", class, SessionLength, nil)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d records", class, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s record %d: %+v vs %+v", class, i, a[i], b[i])
			}
		}
	}
}

// TestSynthesizeSessionScalesWithLength: a longer session carries
// proportionally more uploads, and events stay inside the session.
func TestSynthesizeSessionScalesWithLength(t *testing.T) {
	countUploads := func(records []BehaviorRecord) int {
		n := 0
		for _, r := range records {
			if r.Behavior == BehaviorUpload {
				n++
			}
		}
		return n
	}
	short := SynthesizeSession(randx.New(3), "u", ClassActive, SessionLength, nil)
	long := SynthesizeSession(randx.New(3), "u", ClassActive, 4*SessionLength, nil)
	su, lu := countUploads(short), countUploads(long)
	if lu < 3*su {
		t.Errorf("4x session uploads %d vs 1x %d: not scaling", lu, su)
	}
	length := 90 * time.Second
	for _, r := range SynthesizeSession(randx.New(3), "u", ClassInactive, length, nil) {
		if r.At < 0 || r.At >= length {
			t.Fatalf("record at %v outside [0, %v)", r.At, length)
		}
	}
}
