package heartbeat

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refSchedule and refMerge are Schedule and the sort-based Merge that
// AppendSchedule and Merger.Append replaced, kept verbatim as the
// reference the merge must reproduce.
func refSchedule(a TrainApp, horizon time.Duration, scale func(at, step time.Duration) time.Duration) []Beat {
	var beats []Beat
	at := a.FirstAt
	for i := 0; at < horizon; i++ {
		beats = append(beats, Beat{At: at, App: a.Name, Size: a.PacketSize})
		step := a.Policy.IntervalAfter(i)
		if step <= 0 {
			break
		}
		if scale != nil {
			if step = scale(at, step); step <= 0 {
				break
			}
		}
		at += step
	}
	return beats
}

func refMerge(apps []TrainApp, horizon time.Duration, scale func(at, step time.Duration) time.Duration) []Beat {
	var all []Beat
	for _, a := range apps {
		all = append(all, refSchedule(a, horizon, scale)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// TestMergeMatchesSortReference compares Merge, and one Merger reused
// across every case appending behind a prefix, with the sort-based
// reference over random train sets: one to four apps drawn from few
// phases and cycles, so beats of different apps share instants, fixed and
// adaptive policies, and no scale, a uniform one or a time-varying one.
func TestMergeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	scales := []func(at, step time.Duration) time.Duration{
		nil,
		func(_, step time.Duration) time.Duration { return step / 2 },
		func(at, step time.Duration) time.Duration {
			if at%(7*time.Minute) < 3*time.Minute {
				return step / 3
			}
			return step
		},
	}
	var m Merger
	prefix := []Beat{{At: time.Hour, App: "prefix", Size: 1}}
	crossApp := 0
	for c := 0; c < 1500; c++ {
		apps := make([]TrainApp, 1+rng.Intn(4))
		for i := range apps {
			apps[i] = TrainApp{
				Name:       []string{"qq", "wechat", "whatsapp"}[rng.Intn(3)],
				PacketSize: int64(1 + rng.Intn(400)),
				Policy:     FixedCycle(time.Duration(1+rng.Intn(3)) * 30 * time.Second),
				FirstAt:    time.Duration(rng.Intn(3)) * 10 * time.Second,
			}
			if rng.Intn(4) == 0 {
				apps[i].Policy = NetEase().Policy
			}
		}
		horizon := time.Duration(1+rng.Intn(40)) * time.Minute
		scale := scales[c%len(scales)]
		want := refMerge(apps, horizon, scale)
		for i := 1; i < len(want); i++ {
			if want[i].At == want[i-1].At {
				crossApp++
			}
		}
		if got := Merge(apps, horizon, scale); !slices.Equal(got, want) {
			t.Fatalf("case %d: Merge = %v, want %v", c, got, want)
		}
		got := m.Append(slices.Clone(prefix), apps, horizon, scale)
		if !slices.Equal(got, append(slices.Clone(prefix), want...)) {
			t.Fatalf("case %d: reused Merger = %v, want the prefix then %v", c, got, want)
		}
	}
	if crossApp == 0 {
		t.Fatal("no case put two apps' beats at one instant")
	}
}
