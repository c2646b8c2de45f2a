package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"etrain/internal/profile"
	"etrain/internal/sched"
	"etrain/internal/workload"
)

// refGreedySelect is the Eq. 9 greedy that re-evaluated φ for every queued
// packet on every pick, kept verbatim as the reference the once-per-slot
// greedy must reproduce. It treats an app named "" as "nothing found", so
// the differential test below never uses that name.
func refGreedySelect(q *sched.Queues, nextSlot time.Duration, limit int) []workload.Packet {
	apps := q.AppsView()

	pbar := make(map[string]float64, len(apps))
	for _, app := range apps {
		pbar[app] = q.SpeculativeAppCostAt(app, nextSlot)
	}
	claimed := make(map[string]float64, len(apps))

	var selected []workload.Packet
	for len(selected) < limit && q.Len() > 0 {
		bestGain := math.Inf(-1)
		bestApp := ""
		bestID := 0
		bestPhi := 0.0
		for _, app := range apps {
			for _, p := range q.View(app) {
				phi := p.Cost(nextSlot)
				gain := (pbar[app]-claimed[app])*phi - phi*phi/2
				if gain > bestGain {
					bestGain = gain
					bestApp = app
					bestID = p.ID
					bestPhi = phi
				}
			}
		}
		if bestApp == "" {
			break
		}
		p, ok := q.PopByID(bestApp, bestID)
		if !ok {
			break
		}
		claimed[bestApp] += bestPhi
		selected = append(selected, p)
	}
	return selected
}

// queued lists every queued packet in iteration order.
func queued(q *sched.Queues) []workload.Packet {
	var out []workload.Packet
	q.Each(func(p workload.Packet) { out = append(out, p) })
	return out
}

// TestGreedyMatchesReference compares Schedule's Eq. 9 selection at
// heartbeat slots with the reference greedy over 12k random queues: one to
// four apps, all three profiles, arrivals drawn from a few instants so
// that equal φ values tie, limits 1, 3, 20 and ∞, and t+1 exactly on a
// packet's deadline or 1 ns before it. One ETrain per limit serves every
// queue, so its reused scratch and result buffer are exercised. The
// selections and the queues left behind must be identical.
func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	names := []string{"weibo", "mail", "cloud", "sync"}
	deadlines := []time.Duration{30 * time.Second, 45 * time.Second, 60 * time.Second}
	mk := []func(time.Duration) profile.Profile{profile.Mail, profile.Weibo, profile.Cloud}
	limits := []int{1, 3, 20, KInfinite}
	strategies := make([]*ETrain, len(limits))
	for i, k := range limits {
		e, err := New(Options{Theta: 0, K: k})
		if err != nil {
			t.Fatal(err)
		}
		strategies[i] = e
	}
	const trials = 12000
	for trial := 0; trial < trials; trial++ {
		apps := names[:1+rng.Intn(len(names))]
		n := rng.Intn(16)
		var pkts []workload.Packet
		for id := 0; id < n; id++ {
			// A few distinct arrival instants and profiles, so φ ties.
			pkts = append(pkts, workload.Packet{
				ID:        id,
				App:       apps[rng.Intn(len(apps))],
				ArrivedAt: time.Duration(rng.Intn(6)) * 5 * time.Second,
				Size:      1000,
				Profile:   mk[rng.Intn(len(mk))](deadlines[rng.Intn(len(deadlines))]),
			})
		}
		slices.SortStableFunc(pkts, func(a, b workload.Packet) int { return cmp.Compare(a.ArrivedAt, b.ArrivedAt) })
		got, want := sched.NewQueues(), sched.NewQueues()
		for _, p := range pkts {
			got.Add(p)
			want.Add(p)
		}

		slot := time.Second
		now := time.Duration(rng.Intn(120)) * time.Second
		if n > 0 && rng.Intn(2) == 0 {
			// t+1 on a packet's deadline, or 1 ns before it.
			p := pkts[rng.Intn(n)]
			now = p.ArrivedAt + p.Profile.Deadline() - slot - time.Duration(rng.Intn(2))
		}
		li := rng.Intn(len(limits))
		wantSel := refGreedySelect(want, now+slot, limits[li])
		gotSel := strategies[li].Schedule(&sched.SlotContext{
			Now: now, SlotLength: slot, HeartbeatNow: true, Queues: got,
		})
		if !slices.Equal(gotSel, wantSel) {
			t.Fatalf("trial %d (limit %d, t+1 = %v): selected %v, want %v", trial, limits[li], now+slot, ids(gotSel), ids(wantSel))
		}
		if !slices.Equal(queued(got), queued(want)) || got.Len() != want.Len() {
			t.Fatalf("trial %d: remaining queues differ: %v, want %v", trial, ids(queued(got)), ids(queued(want)))
		}
	}
}
