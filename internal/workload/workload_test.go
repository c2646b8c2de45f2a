package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"etrain/internal/profile"
	"etrain/internal/randx"
)

// rate is a spec's arrival rate in packets/second.
func rate(s CargoSpec) float64 { return 1 / s.MeanInterArrival.Seconds() }

func TestDefaultSpecsRatioAndRate(t *testing.T) {
	specs := DefaultSpecs()
	if len(specs) != 3 {
		t.Fatalf("got %d specs, want 3", len(specs))
	}
	total := 0.0
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", s.Name, err)
		}
		total += rate(s)
	}
	if math.Abs(total-0.08) > 1e-9 {
		t.Fatalf("total rate = %v, want 0.08", total)
	}
	// Paper ratio 5:2:10 for mail:weibo:cloud.
	if specs[0].MeanInterArrival != 50*time.Second ||
		specs[1].MeanInterArrival != 20*time.Second ||
		specs[2].MeanInterArrival != 100*time.Second {
		t.Fatalf("inter-arrival times %v/%v/%v violate 5:2:10",
			specs[0].MeanInterArrival, specs[1].MeanInterArrival, specs[2].MeanInterArrival)
	}
}

func TestSpecsForLambda(t *testing.T) {
	for _, lambda := range []float64{0.04, 0.06, 0.08, 0.10, 0.12} {
		specs, err := SpecsForLambda(lambda)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, s := range specs {
			total += rate(s)
		}
		if math.Abs(total-lambda) > 1e-9 {
			t.Fatalf("lambda %v: total rate %v", lambda, total)
		}
		// Ratio preserved.
		if math.Abs(rate(specs[2])/rate(specs[0])-0.5) > 1e-9 {
			t.Fatalf("lambda %v: cloud/mail rate ratio broken", lambda)
		}
	}
}

func TestSpecsForLambdaRejectsNonPositive(t *testing.T) {
	if _, err := SpecsForLambda(0); err == nil {
		t.Fatal("lambda 0 accepted")
	}
}

func TestGenerateSortedWithIDs(t *testing.T) {
	packets, err := Generate(randx.New(1), DefaultSpecs(), 2*time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(packets) == 0 {
		t.Fatal("no packets generated")
	}
	for i, p := range packets {
		if p.ID != i {
			t.Fatalf("packet %d has ID %d", i, p.ID)
		}
		if i > 0 && p.ArrivedAt < packets[i-1].ArrivedAt {
			t.Fatalf("packets out of order at %d", i)
		}
		if p.ArrivedAt >= 2*time.Hour {
			t.Fatalf("packet beyond horizon: %v", p.ArrivedAt)
		}
		if p.Profile == nil {
			t.Fatalf("packet %d has no profile", i)
		}
	}
}

func TestGenerateRateMatchesLambda(t *testing.T) {
	horizon := 20 * time.Hour
	packets, err := Generate(randx.New(2), DefaultSpecs(), horizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.08 * horizon.Seconds()
	got := float64(len(packets))
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("generated %v packets, want ~%v", got, want)
	}
}

func TestGenerateSizesRespectMinimum(t *testing.T) {
	packets, err := Generate(randx.New(3), DefaultSpecs(), 5*time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	mins := map[string]int64{"mail": 1024, "weibo": 100, "cloud": 10 * 1024}
	for _, p := range packets {
		if p.Size < mins[p.App] {
			t.Fatalf("%s packet of %d bytes below minimum %d", p.App, p.Size, mins[p.App])
		}
	}
}

func TestGenerateMeanSizes(t *testing.T) {
	packets, err := Generate(randx.New(4), []CargoSpec{MailSpec()}, 100*time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range packets {
		sum += float64(p.Size)
	}
	mean := sum / float64(len(packets))
	// Truncation at 1.65σ below the mean shifts the expectation up by
	// σ·φ(α)/(1−Φ(α)) ≈ 280 bytes; accept [5120, 5700].
	if mean < 5*1024 || mean > 5700 {
		t.Fatalf("mail mean size = %.0f, want within [5120, 5700]", mean)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(randx.New(7), DefaultSpecs(), time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(randx.New(7), DefaultSpecs(), time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ArrivedAt != b[i].ArrivedAt || a[i].Size != b[i].Size || a[i].App != b[i].App {
			t.Fatalf("packet %d differs between identical seeds", i)
		}
	}
}

func TestGenerateRejectsInvalidSpec(t *testing.T) {
	bad := CargoSpec{Name: "bad"}
	if _, err := Generate(randx.New(1), []CargoSpec{bad}, time.Hour, nil); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestPacketCostAndDeadline(t *testing.T) {
	p := Packet{ArrivedAt: 10 * time.Second, Profile: profile.Weibo(30 * time.Second)}
	if got := p.Cost(25 * time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("Cost = %v, want 0.5 at half deadline", got)
	}
	if p.DeadlineViolated(40 * time.Second) {
		t.Fatal("deadline flagged at exactly deadline")
	}
	if !p.DeadlineViolated(41 * time.Second) {
		t.Fatal("deadline not flagged past deadline")
	}
}

func TestWithDeadline(t *testing.T) {
	for _, base := range DefaultSpecs() {
		mod := base.WithDeadline(77 * time.Second)
		if mod.Profile.Deadline() != 77*time.Second {
			t.Fatalf("%s WithDeadline = %v", base.Name, mod.Profile.Deadline())
		}
		if mod.Name != base.Name || mod.MeanInterArrival != base.MeanInterArrival {
			t.Fatalf("%s WithDeadline changed unrelated fields", base.Name)
		}
	}
}

// TestWithDeadlineKeepsTheProfileFamily moves specs whose names do not
// match their profiles: the family comes from the profile, and a custom
// profile's curve moves with its deadline.
func TestWithDeadlineKeepsTheProfileFamily(t *testing.T) {
	cases := []struct {
		name string
		prof profile.Profile
		kind profile.Kind
		want float64 // cost at 90 s once moved to a 60 s deadline
	}{
		{"mail", profile.Weibo(30 * time.Second), profile.KindWeibo, 2},
		{"sync", profile.Cloud(30 * time.Second), profile.KindCloud, 2.5},
	}
	for _, c := range cases {
		mod := CargoSpec{Name: c.name, Profile: c.prof}.WithDeadline(60 * time.Second)
		if kind, ok := profile.KindOf(mod.Profile); !ok || kind != c.kind {
			t.Errorf("%s carrying %s: moved profile has kind %v (ok %v), want %v", c.name, c.prof.Name(), kind, ok, c.kind)
		}
		if got := mod.Profile.Cost(90 * time.Second); got != c.want {
			t.Errorf("%s carrying %s: moved profile costs %v at 90 s, want %v", c.name, c.prof.Name(), got, c.want)
		}
	}

	// A custom profile keeps its curve over normalized delay.
	curve := func(x float64) float64 { return 3 * x }
	mod := CargoSpec{Name: "mail", Profile: profile.Custom("linear", 30*time.Second, curve)}.WithDeadline(60 * time.Second)
	if _, ok := profile.KindOf(mod.Profile); ok || mod.Profile.Deadline() != 60*time.Second {
		t.Fatalf("custom profile moved to %v, family reported %v", mod.Profile.Deadline(), ok)
	}
	for _, d := range []time.Duration{0, 15 * time.Second, 60 * time.Second, 90 * time.Second} {
		if got, want := mod.Profile.Cost(d), curve(d.Seconds()/60); got != want {
			t.Errorf("moved custom profile costs %v at %v, want %v", got, d, want)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []CargoSpec{
		{},
		{Name: "x"},
		{Name: "x", Profile: profile.Mail(time.Minute)},
		{Name: "x", Profile: profile.Mail(time.Minute), MeanInterArrival: time.Second, SizeMean: 10, SizeMin: 100},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d validated", i)
		}
	}
}

// Property: generated packet arrival times are always within horizon and
// sizes at least the minimum, across seeds.
func TestGenerateProperty(t *testing.T) {
	prop := func(seed int64) bool {
		packets, err := Generate(randx.New(seed), []CargoSpec{WeiboSpec()}, 30*time.Minute, nil)
		if err != nil {
			return false
		}
		for _, p := range packets {
			if p.ArrivedAt < 0 || p.ArrivedAt >= 30*time.Minute || p.Size < 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
