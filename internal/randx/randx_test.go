package randx

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must be deterministic given the parent seed.
	parent2 := New(7)
	child2 := parent2.Split()
	for i := 0; i < 50; i++ {
		if child.Float64() != child2.Float64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

func TestDerivePureFunction(t *testing.T) {
	a := Derive(42, 7, 9)
	b := Derive(42, 7, 9)
	if a != b {
		t.Fatalf("Derive not deterministic: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatalf("Derive returned negative seed %d", a)
	}
	// Unlike Split, Derive consumes no state: interleaving other
	// derivations must not change the answer.
	_ = Derive(42, 1)
	_ = Derive(99, 7, 9)
	if got := Derive(42, 7, 9); got != a {
		t.Fatalf("Derive changed after unrelated calls: %d vs %d", got, a)
	}
}

func TestDeriveSeparatesIdentities(t *testing.T) {
	// Distinct identities must get distinct streams: vary each component
	// and check the derived seeds collide essentially never.
	seen := map[int64][]string{}
	for seed := int64(0); seed < 8; seed++ {
		for p1 := uint64(0); p1 < 16; p1++ {
			for p2 := uint64(0); p2 < 16; p2++ {
				id := fmt.Sprintf("%d/%d/%d", seed, p1, p2)
				seen[Derive(seed, p1, p2)] = append(seen[Derive(seed, p1, p2)], id)
			}
		}
	}
	for k, ids := range seen {
		if len(ids) > 1 {
			t.Fatalf("derived seed %d collides for identities %v", k, ids)
		}
	}
	// Argument order matters.
	if Derive(1, 2, 3) == Derive(1, 3, 2) {
		t.Fatal("Derive is order-insensitive")
	}
	// Part count matters: (x) vs (x, 0) name different identities.
	if Derive(1, 2) == Derive(1, 2, 0) {
		t.Fatal("Derive ignores trailing parts")
	}
}

func TestDeriveString(t *testing.T) {
	if DeriveString("etrain-k20") != DeriveString("etrain-k20") {
		t.Fatal("DeriveString not deterministic")
	}
	if DeriveString("etrain-k20") == DeriveString("etrain-k2") {
		t.Fatal("DeriveString collides on close keys")
	}
	if DeriveString("") == DeriveString("x") {
		t.Fatal("DeriveString empty vs non-empty collide")
	}
}

func TestDerivedStreamsIndependent(t *testing.T) {
	a := New(Derive(5, DeriveString("etrain"), math.Float64bits(1.0)))
	b := New(Derive(5, DeriveString("etrain"), math.Float64bits(1.2)))
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams of adjacent controls matched on %d of 100 draws", same)
	}
}

func TestExpMean(t *testing.T) {
	s := New(3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(5.0)
	}
	mean := sum / n
	if math.Abs(mean-5.0) > 0.1 {
		t.Fatalf("Exp mean = %.3f, want ~5.0", mean)
	}
}

func TestExpNonPositiveMean(t *testing.T) {
	s := New(3)
	if got := s.Exp(0); got != 0 {
		t.Fatalf("Exp(0) = %v, want 0", got)
	}
	if got := s.Exp(-1); got != 0 {
		t.Fatalf("Exp(-1) = %v, want 0", got)
	}
}

func TestTruncatedNormalRespectsMin(t *testing.T) {
	s := New(11)
	prop := func(seedDelta uint8) bool {
		src := New(int64(seedDelta))
		for i := 0; i < 200; i++ {
			if src.TruncatedNormal(5000, 2500, 1000) < 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
	_ = s
}

func TestTruncatedNormalSaturatesWhenMinFarAboveMean(t *testing.T) {
	s := New(5)
	v := s.TruncatedNormal(0, 0.001, 100)
	if v != 100 {
		t.Fatalf("TruncatedNormal saturation = %v, want 100", v)
	}
}

func TestTruncatedNormalMean(t *testing.T) {
	s := New(17)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.TruncatedNormal(5000, 1000, 1000)
	}
	mean := sum / n
	// Truncation at 4 sigma below the mean barely shifts it.
	if math.Abs(mean-5000) > 50 {
		t.Fatalf("truncated normal mean = %.1f, want ~5000", mean)
	}
}

func TestPoissonProcessMonotone(t *testing.T) {
	p := NewPoissonProcess(New(37), 10*time.Second)
	prev := time.Duration(-1)
	for i := 0; i < 1000; i++ {
		next := p.Next()
		if next < prev {
			t.Fatalf("arrival %d at %v is before previous %v", i, next, prev)
		}
		prev = next
	}
}

func TestPoissonProcessRate(t *testing.T) {
	p := NewPoissonProcess(New(41), 10*time.Second)
	horizon := 100000 * time.Second
	arrivals := p.AppendArrivalsUntil(nil, horizon)
	want := int(horizon / (10 * time.Second))
	got := len(arrivals)
	if math.Abs(float64(got-want)) > 0.05*float64(want) {
		t.Fatalf("got %d arrivals, want ~%d", got, want)
	}
	for _, a := range arrivals {
		if a >= horizon {
			t.Fatalf("arrival %v beyond horizon %v", a, horizon)
		}
	}
}

func TestPoissonProcessExhaustedHorizon(t *testing.T) {
	p := NewPoissonProcess(New(47), time.Hour)
	if got := p.AppendArrivalsUntil(nil, 0); got != nil {
		t.Fatalf("AppendArrivalsUntil(nil, 0) = %v, want nil", got)
	}
}
