package profile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

const dl = 30 * time.Second

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMailZeroBeforeDeadline(t *testing.T) {
	p := Mail(dl)
	for _, d := range []time.Duration{0, time.Second, 15 * time.Second, dl} {
		if got := p.Cost(d); got != 0 {
			t.Fatalf("mail cost(%v) = %v, want 0", d, got)
		}
	}
}

func TestMailLinearAfterDeadline(t *testing.T) {
	p := Mail(dl)
	if got := p.Cost(2 * dl); !almostEqual(got, 1) {
		t.Fatalf("mail cost(2·deadline) = %v, want 1", got)
	}
	if got := p.Cost(3 * dl); !almostEqual(got, 2) {
		t.Fatalf("mail cost(3·deadline) = %v, want 2", got)
	}
}

func TestWeiboRampAndPlateau(t *testing.T) {
	p := Weibo(dl)
	if got := p.Cost(dl / 2); !almostEqual(got, 0.5) {
		t.Fatalf("weibo cost(deadline/2) = %v, want 0.5", got)
	}
	if got := p.Cost(dl); !almostEqual(got, 1) {
		t.Fatalf("weibo cost(deadline) = %v, want 1", got)
	}
	for _, d := range []time.Duration{dl + time.Second, 5 * dl} {
		if got := p.Cost(d); !almostEqual(got, 2) {
			t.Fatalf("weibo cost(%v) = %v, want plateau 2", d, got)
		}
	}
}

func TestCloudSteepensAfterDeadline(t *testing.T) {
	p := Cloud(dl)
	if got := p.Cost(dl / 2); !almostEqual(got, 0.5) {
		t.Fatalf("cloud cost(deadline/2) = %v, want 0.5", got)
	}
	if got := p.Cost(2 * dl); !almostEqual(got, 4) {
		t.Fatalf("cloud cost(2·deadline) = %v, want 3·2−2 = 4", got)
	}
}

func TestNegativeDelayCostsZero(t *testing.T) {
	for _, p := range []Profile{Mail(dl), Weibo(dl), Cloud(dl)} {
		if got := p.Cost(-time.Second); got != 0 {
			t.Fatalf("%s cost(-1s) = %v, want 0", p.Name(), got)
		}
	}
}

func TestNewByKind(t *testing.T) {
	tests := []struct {
		kind Kind
		name string
	}{
		{KindMail, "mail/f1"},
		{KindWeibo, "weibo/f2"},
		{KindCloud, "cloud/f3"},
	}
	for _, tt := range tests {
		p, err := New(tt.kind, dl)
		if err != nil {
			t.Fatalf("New(%v): %v", tt.kind, err)
		}
		if p.Name() != tt.name {
			t.Fatalf("New(%v).Name() = %q, want %q", tt.kind, p.Name(), tt.name)
		}
		if p.Deadline() != dl {
			t.Fatalf("New(%v).Deadline() = %v, want %v", tt.kind, p.Deadline(), dl)
		}
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Kind(99), dl); err == nil {
		t.Fatal("New(99) succeeded, want error")
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindMail, "mail"},
		{KindWeibo, "weibo"},
		{KindCloud, "cloud"},
		{Kind(42), "profile.Kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestCustomProfile(t *testing.T) {
	p := Custom("step", dl, func(x float64) float64 {
		if x < 1 {
			return 0
		}
		return 10
	})
	if got := p.Cost(dl - time.Second); got != 0 {
		t.Fatalf("custom cost before deadline = %v, want 0", got)
	}
	if got := p.Cost(dl + time.Second); got != 10 {
		t.Fatalf("custom cost after deadline = %v, want 10", got)
	}
}

// Property: all paper profiles are non-negative and non-decreasing in d.
func TestProfilesMonotoneNonNegative(t *testing.T) {
	profiles := []Profile{Mail(dl), Weibo(dl), Cloud(dl)}
	prop := func(aMillis, bMillis uint32) bool {
		a := time.Duration(aMillis) * time.Millisecond
		b := time.Duration(bMillis) * time.Millisecond
		if a > b {
			a, b = b, a
		}
		for _, p := range profiles {
			ca, cb := p.Cost(a), p.Cost(b)
			if ca < 0 || cb < 0 || ca > cb+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Mail and cloud are continuous at the deadline; weibo jumps from 1 to its
// plateau of 2 exactly as drawn in the paper's Fig. 6.
func TestProfileDeadlineBehaviour(t *testing.T) {
	eps := time.Millisecond
	for _, p := range []Profile{Mail(dl), Cloud(dl)} {
		before := p.Cost(dl - eps)
		after := p.Cost(dl + eps)
		if math.Abs(after-before) > 0.01 {
			t.Fatalf("%s jumps at deadline: %v -> %v", p.Name(), before, after)
		}
	}
	w := Weibo(dl)
	if before, after := w.Cost(dl-eps), w.Cost(dl+eps); after-before < 0.9 {
		t.Fatalf("weibo should jump ~1 at deadline, got %v -> %v", before, after)
	}
}

func TestZeroDeadlineIsSafe(t *testing.T) {
	p := Mail(0)
	if got := p.Cost(time.Second); got != 0 {
		t.Fatalf("cost with zero deadline = %v, want 0 (no division by zero)", got)
	}
}

// refFamilies holds each family's cost as a closure over x = d/deadline,
// the form Cost took before it switched on the family: the reference its
// constant pieces must reproduce bit for bit.
var refFamilies = map[Kind]func(x float64) float64{
	KindMail: func(x float64) float64 {
		if x <= 1 {
			return 0
		}
		return x - 1
	},
	KindWeibo: func(x float64) float64 {
		if x <= 1 {
			return x
		}
		return 2
	},
	KindCloud: func(x float64) float64 {
		if x <= 1 {
			return x
		}
		return 3*x - 2
	},
}

func refCost(kind Kind, deadline, d time.Duration) float64 {
	if d <= 0 || deadline <= 0 {
		return 0
	}
	return refFamilies[kind](d.Seconds() / deadline.Seconds())
}

// TestCostMatchesClosureReference compares every family's Cost with the
// closure reference bit for bit: deadlines from 1 ns to 2⁶² ns (each power
// of two, its neighbours and random ones up to 2⁵⁰ ns) and the largest a
// client can send, probed at D−2…D+2, at D + 2ʲ up to 2D, around Weibo's
// plateau edge D + D>>20 and at random delays. Past 2⁵² ns, Seconds
// cannot tell D from D + 1 ns, so a plateau that starts too early shows
// there.
func TestCostMatchesClosureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	deadlines := []time.Duration{dl, time.Minute, time.Second, math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 >> 1}
	for e := 0; e <= 62; e++ {
		deadlines = append(deadlines, 1<<e-1, 1<<e, 1<<e+1)
	}
	for i := 0; i < 400; i++ {
		deadlines = append(deadlines, 1+time.Duration(rng.Int63n(1<<uint(1+rng.Intn(50)))))
	}
	// add saturates at the largest Duration instead of wrapping.
	add := func(a, b time.Duration) time.Duration {
		if b > 0 && a > math.MaxInt64-b {
			return math.MaxInt64
		}
		return a + b
	}
	checked := 0
	for _, D := range deadlines {
		var probes []time.Duration
		edge := add(D, D>>20)
		for k := time.Duration(-2); k <= 2; k++ {
			probes = append(probes, add(D, k), add(edge, k))
		}
		for step := time.Duration(1); step > 0 && step <= D; step *= 2 {
			probes = append(probes, add(D, step))
		}
		probes = append(probes, add(D, D), 0, -1)
		for i := 0; i < 8; i++ {
			probes = append(probes, time.Duration(rng.Int63n(int64(max(add(D, D), 1))))+1)
		}
		for _, kind := range []Kind{KindMail, KindWeibo, KindCloud} {
			p, err := New(kind, D)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range probes {
				got, want := p.Cost(d), refCost(kind, D, d)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s deadline %d ns: Cost(%d ns) = %v, closure reference %v", kind, D, d, got, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d costs compared", checked)
}

// TestKindOfReadsTheFamily: a family reports its kind, and a custom
// profile has none even under a family's name.
func TestKindOfReadsTheFamily(t *testing.T) {
	for _, kind := range []Kind{KindMail, KindWeibo, KindCloud} {
		p, err := New(kind, dl)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := KindOf(p); !ok || got != kind {
			t.Errorf("KindOf(New(%s)) = %v, %v", kind, got, ok)
		}
	}
	impostor := Custom("mail/f1", dl, func(x float64) float64 { return x })
	if got, ok := KindOf(impostor); ok {
		t.Errorf("KindOf(custom %q) = %v, want no kind", impostor.Name(), got)
	}
	if _, ok := KindOf(nil); ok {
		t.Error("KindOf(nil) reported a kind")
	}
}

// A server session builds a profile per distinct (kind, deadline) of its
// cargo; keep each one a single 32-byte allocation.
func TestFuncProfileIs32Bytes(t *testing.T) {
	if size := unsafe.Sizeof(funcProfile{}); size != 32 {
		t.Fatalf("funcProfile is %d bytes, want 32", size)
	}
}
