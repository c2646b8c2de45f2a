package fleet

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/profile"
	"etrain/internal/workload"
)

// refMergePackets is the sort-based mergePackets the stable merge
// replaced, kept verbatim as its reference.
func refMergePackets(session, background []workload.Packet) []workload.Packet {
	all := make([]workload.Packet, 0, len(session)+len(background))
	all = append(all, session...)
	all = append(all, background...)
	slices.SortStableFunc(all, func(a, b workload.Packet) int { return cmp.Compare(a.ArrivedAt, b.ArrivedAt) })
	for i := range all {
		all[i].ID = i
	}
	return all
}

// TestMergePacketsMatchesSortReference compares mergePackets, on one
// reused buffer, with the sort-based reference over random session and
// background streams, each in arrival order, drawn from a few instants so
// equal instants meet within each stream and across the two.
func TestMergePacketsMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	prof := profile.Weibo(sessionDeadline)
	stream := func(app string) []workload.Packet {
		out := make([]workload.Packet, rng.Intn(15))
		for i := range out {
			out[i] = workload.Packet{ID: i, App: app, ArrivedAt: time.Duration(rng.Intn(10)) * time.Second, Size: int64(rng.Intn(5000)), Profile: prof}
		}
		slices.SortStableFunc(out, func(a, b workload.Packet) int { return cmp.Compare(a.ArrivedAt, b.ArrivedAt) })
		return out
	}
	var dst []workload.Packet
	for c := 0; c < 2000; c++ {
		session, background := stream("weibo"), stream("mail")
		want := refMergePackets(session, background)
		dst = mergePackets(dst[:0], append(slices.Clone(session), background...))
		if !slices.Equal(dst, want) {
			t.Fatalf("case %d: mergePackets = %v, want %v", c, dst, want)
		}
	}
}

// TestScratchMatchesFreshRunPair runs devices of every class on one
// scratch, under 3G (the legacy model and the named one) and LTE DRX, with
// and without the week profile, at two horizons, alternating so every
// buffer shrinks and regrows. Each outcome must equal a fresh RunPair over
// the device's fresh synthesis.
func TestScratchMatchesFreshRunPair(t *testing.T) {
	pop := mustPopulation(t)
	week, err := diurnal.ByName("week")
	if err != nil {
		t.Fatal(err)
	}
	week.TimeScale = 1008
	sc := scratchFor(t, &Config{Theta: 3, K: 12})
	classes := map[workload.ActivenessClass]int{}
	for _, radioName := range []string{"", "3g", "lte-drx"} {
		for _, prof := range []*diurnal.Profile{nil, week} {
			for _, horizon := range []time.Duration{10 * time.Minute, 2 * time.Minute} {
				norm, _, err := Config{Devices: 1, Seed: 33, Horizon: horizon, Theta: 3, K: 12, Diurnal: prof, Radio: radioName}.normalize()
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 12; i++ {
					got, err := sc.runDevice(&norm, pop, i)
					if err != nil {
						t.Fatal(err)
					}
					dev, err := SynthesizeDeviceOpts(norm.Seed, pop, i, horizon, DeviceOptions{Diurnal: prof})
					if err != nil {
						t.Fatal(err)
					}
					base, err := dev.SimConfig()
					if err != nil {
						t.Fatal(err)
					}
					base.Radio = norm.radioModel
					want, err := RunPair(base, norm.Theta, norm.K)
					if err != nil {
						t.Fatal(err)
					}
					want.ClassIndex = dev.ClassIndex
					if got != want {
						t.Fatalf("radio %q, diurnal %v, horizon %v, device %d: scratch outcome %+v, fresh %+v", radioName, prof != nil, horizon, i, got, want)
					}
					classes[dev.Class]++
				}
			}
		}
	}
	if len(classes) != 3 {
		t.Fatalf("devices covered classes %v, want all three", classes)
	}
}
