package workload

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"etrain/internal/profile"
	"etrain/internal/randx"
)

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
		total += s.Rate()
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
			total += s.Rate()
		}
		if math.Abs(total-lambda) > 1e-9 {
			t.Fatalf("lambda %v: total rate %v", lambda, total)
		}
		// Ratio preserved.
		if math.Abs(specs[2].Rate()/specs[0].Rate()-0.5) > 1e-9 {
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

func TestRateZeroForNoInterArrival(t *testing.T) {
	if got := (CargoSpec{}).Rate(); got != 0 {
		t.Fatalf("Rate = %v, want 0", got)
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
