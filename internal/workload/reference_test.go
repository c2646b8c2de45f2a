package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/profile"
	"etrain/internal/randx"
)

// refGenerate is the sort-based Generate that Generator.Append replaced,
// kept verbatim as the reference the merge must reproduce.
func refGenerate(src *randx.Source, specs []CargoSpec, horizon time.Duration, sam *diurnal.Sampler) ([]Packet, error) {
	var all []Packet
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		appSrc := src.Split()
		var arrivals []time.Duration
		if sam == nil {
			arrivals = randx.NewPoissonProcess(appSrc, spec.MeanInterArrival).AppendArrivalsUntil(nil, horizon)
		} else {
			arrivals = sam.AppendArrivals(nil, appSrc, spec.MeanInterArrival, horizon)
		}
		for _, at := range arrivals {
			size := int64(appSrc.TruncatedNormal(spec.SizeMean, spec.SizeStdDev, spec.SizeMin))
			all = append(all, Packet{
				App:       spec.Name,
				ArrivedAt: at,
				Size:      size,
				Profile:   spec.Profile,
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ArrivedAt < all[j].ArrivedAt })
	for i := range all {
		all[i].ID = i
	}
	return all, nil
}

// refSynthesizeSession is SynthesizeSession as it was before AppendSession,
// ordering its records with sort.SliceStable; kept as the reference.
func refSynthesizeSession(src *randx.Source, userID string, class ActivenessClass, length time.Duration, sam *diurnal.Sampler) []BehaviorRecord {
	uploads := scaleSessionCount(uploadsFor(src, class), length, sam)
	downloads := uploads/2 + src.Intn(uploads+1)
	var records []BehaviorRecord
	for i := 0; i < uploads; i++ {
		records = append(records, BehaviorRecord{
			UserID:   userID,
			Behavior: BehaviorUpload,
			At:       placeInSession(src.Float64(), length, sam),
			Size:     int64(src.TruncatedNormal(2*1024, 1024, 100)),
		})
	}
	for i := 0; i < downloads; i++ {
		records = append(records, BehaviorRecord{
			UserID:   userID,
			Behavior: BehaviorDownload,
			At:       placeInSession(src.Float64(), length, sam),
			Size:     int64(src.TruncatedNormal(8*1024, 4*1024, 500)),
		})
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].At < records[j].At })
	return records
}

// samePackets reports where two packet lists first differ, "" if nowhere.
// Profiles compare by identity: both sides share the specs' profiles.
func samePackets(got, want []Packet) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d packets, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.App != w.App || g.ArrivedAt != w.ArrivedAt || g.Size != w.Size || g.Profile != w.Profile {
			return fmt.Sprintf("packet %d is %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// testSamplers returns the sampler column of the reference tests: none,
// the flat profile and the week profile replayed 1008× faster.
func testSamplers(t *testing.T) []*diurnal.Sampler {
	t.Helper()
	week, err := diurnal.ByName("week")
	if err != nil {
		t.Fatal(err)
	}
	week.TimeScale = 1008
	return []*diurnal.Sampler{nil, diurnal.Flat().ForDevice("active", 3), week.ForDevice("moderate", 5)}
}

// TestGenerateMatchesSortReference compares Generate and one Generator
// reused across every case, appending behind a prefix, with the sort-based
// reference, bit for bit. The specs are random: one to four apps, a shared
// name, all three profiles and a custom monotone one, and mean gaps down
// to a nanosecond, whose truncated draws put equal instants within one
// app's stream and across apps.
func TestGenerateMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	profiles := []profile.Profile{
		profile.Mail(40 * time.Second),
		profile.Weibo(30 * time.Second),
		profile.Cloud(60 * time.Second),
		profile.Custom("square", 50*time.Second, func(x float64) float64 { return x * x }),
	}
	samplers := testSamplers(t)
	var g Generator
	// One app stream serves every case, as a fleet scratch's does.
	app := randx.New(0)
	prefix := []Packet{{ID: 7, App: "prefix", ArrivedAt: time.Hour, Size: 1}}
	var sameApp, crossApp int // adjacent equal instants in the references
	for c := 0; c < 600; c++ {
		specs := make([]CargoSpec, 1+rng.Intn(4))
		ties := c%3 == 0
		for i := range specs {
			mean := time.Duration(1+rng.Intn(120)) * time.Second
			if ties {
				mean = time.Duration(1 + rng.Intn(3))
			}
			specs[i] = CargoSpec{
				Name:             fmt.Sprintf("app%d", rng.Intn(3)),
				Profile:          profiles[rng.Intn(len(profiles))],
				MeanInterArrival: mean,
				SizeMean:         2048,
				SizeStdDev:       1024,
				SizeMin:          100,
			}
		}
		horizon := time.Duration(1+rng.Intn(20)) * time.Minute
		if ties {
			horizon = time.Duration(20 + rng.Intn(400))
		}
		sam := samplers[c%len(samplers)]
		seed := rng.Int63()
		want, err := refGenerate(randx.New(seed), specs, horizon, sam)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(want); i++ {
			if want[i].ArrivedAt == want[i-1].ArrivedAt {
				if want[i].App == want[i-1].App {
					sameApp++
				} else {
					crossApp++
				}
			}
		}
		got, err := Generate(randx.New(seed), specs, horizon, sam)
		if err != nil {
			t.Fatal(err)
		}
		if diff := samePackets(got, want); diff != "" {
			t.Fatalf("case %d: Generate: %s", c, diff)
		}
		appended, err := g.Append(append([]Packet(nil), prefix...), randx.New(seed), app, specs, horizon, sam)
		if err != nil {
			t.Fatal(err)
		}
		if diff := samePackets(appended[:1], prefix); diff != "" {
			t.Fatalf("case %d: Append changed the prefix: %s", c, diff)
		}
		if diff := samePackets(appended[1:], want); diff != "" {
			t.Fatalf("case %d: reused Generator: %s", c, diff)
		}
	}
	if sameApp == 0 || crossApp == 0 {
		t.Fatalf("inputs held %d same-app and %d cross-app equal instants; want both", sameApp, crossApp)
	}
}

// TestAppendSessionMatchesSortReference compares SynthesizeSession and
// AppendSession behind a prefix with the reference that ordered records
// with sort.SliceStable, over every class, the sampler column and lengths
// from a nanosecond, where both records share instant 0, to an hour.
func TestAppendSessionMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	samplers := testSamplers(t)
	classes := []ActivenessClass{ClassInactive, ClassModerate, ClassActive}
	lengths := []time.Duration{1, 3, time.Second, 2 * time.Minute, SessionLength, time.Hour}
	prefix := []BehaviorRecord{{UserID: "prefix", Behavior: BehaviorBrowse, At: time.Hour}}
	var dst []BehaviorRecord
	ties := 0
	for c := 0; c < 540; c++ {
		class := classes[c%len(classes)]
		sam := samplers[(c/len(classes))%len(samplers)]
		length := lengths[rng.Intn(len(lengths))]
		seed := rng.Int63()
		want := refSynthesizeSession(randx.New(seed), "u", class, length, sam)
		for i := 1; i < len(want); i++ {
			if want[i].At == want[i-1].At {
				ties++
			}
		}
		got := SynthesizeSession(randx.New(seed), "u", class, length, sam)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("case %d: SynthesizeSession = %v, want %v", c, got, want)
		}
		dst = AppendSession(append(dst[:0], prefix...), randx.New(seed), "u", class, length, sam)
		if fmt.Sprint(dst) != fmt.Sprint(append(append([]BehaviorRecord(nil), prefix...), want...)) {
			t.Fatalf("case %d: AppendSession = %v, want the prefix then %v", c, dst, want)
		}
	}
	if ties == 0 {
		t.Fatal("no session held records at one instant")
	}
}
