//go:build !race

// Under -race, sync.Pool drops items at random, so the channel trace's
// pooled random source allocates and the counts below would wander.

package server

import (
	"testing"
	"time"

	"etrain/internal/fleet"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/wire"
	"etrain/internal/workload"
)

// TestReplayerBuildsOneProfilePerKey replays synthesized 10-minute
// sessions twice: as synthesized, where each cargo app names one
// deadline, and with every CargoArrival's deadline moved by its frame
// index in nanoseconds, so that no two arrivals share a profile. The
// decisions are the same, and the second replay must allocate one
// profile for every arrival past the first replay's few distinct
// (kind, deadline) pairs: a Replayer builds each profile once.
func TestReplayerBuildsOneProfilePerKey(t *testing.T) {
	pop := testPopulation(t)
	for _, index := range []int{1, 2} {
		dev, err := fleet.SynthesizeDevice(7, pop, index, workload.SessionLength)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := SessionFromDevice(dev, testTheta, testK)
		if err != nil {
			t.Fatal(err)
		}
		type key struct {
			kind     profile.Kind
			deadline time.Duration
		}
		keys := map[key]bool{}
		cargo := 0
		distinct := make([]wire.Message, len(sess.Events))
		for i, m := range sess.Events {
			distinct[i] = m
			if c, ok := m.(wire.CargoArrival); ok {
				keys[key{c.Profile, c.Deadline}] = true
				cargo++
				c.Deadline += time.Duration(i)
				distinct[i] = c
			}
		}
		replay := func(events []wire.Message, decisions *int) func() {
			return func() {
				*decisions = 0
				rp, err := NewReplayer(sess.Hello, radio.GalaxyS43G(), func(m wire.Message) error {
					if _, ok := m.(wire.Decision); ok {
						*decisions++
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range events {
					if err := rp.Apply(m); err != nil {
						t.Fatal(err)
					}
				}
				if err := rp.Apply(wire.Ack{Seq: 1}); err != nil {
					t.Fatal(err)
				}
			}
		}
		var shared, apart int
		sharedAllocs := testing.AllocsPerRun(10, replay(sess.Events, &shared))
		apartAllocs := testing.AllocsPerRun(10, replay(distinct, &apart))
		if shared != apart {
			t.Fatalf("device %d: %d decisions with shared deadlines, %d with distinct ones; the comparison needs equal decisions", index, shared, apart)
		}
		if extra, want := apartAllocs-sharedAllocs, float64(cargo-len(keys)); extra != want {
			t.Errorf("device %d: %d arrivals over %d (kind, deadline) pairs: distinct deadlines cost %v more allocations, want %v (one profile per pair)",
				index, cargo, len(keys), extra, want)
		}
	}
}
