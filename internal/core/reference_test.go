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
// packet on every pick, kept as the reference the once-per-slot greedy
// must reproduce; it pops each pick at once, by its index.
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
		bestApp, best := -1, 0
		bestPhi := 0.0
		for a, app := range apps {
			for j, p := range q.View(app) {
				phi := p.Cost(nextSlot)
				gain := (pbar[app]-claimed[app])*phi - phi*phi/2
				if gain > bestGain {
					bestGain = gain
					bestApp, best = a, j
					bestPhi = phi
				}
			}
		}
		if bestApp < 0 {
			break
		}
		claimed[apps[bestApp]] += bestPhi
		selected = append(selected, q.PopAt(bestApp, best))
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

// refNextWake is NextWake as it was before it probed the last candidate
// slot first, bisecting over every candidate; kept verbatim as the
// reference.
func refNextWake(e *ETrain, q *sched.Queues, now, stop, slot time.Duration) time.Duration {
	switch {
	case e.opts.ChannelGated:
		return now
	case q.Len() == 0:
		return stop
	}
	n := (stop - now + slot - 1) / slot
	lo, hi := time.Duration(0), n
	for lo < hi {
		mid := lo + (hi-lo)/2
		if e.gateOpen(q.CostAt(now + mid*slot)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo >= n {
		return stop
	}
	return now + lo*slot
}

// TestNextWakeMatchesBisectionReference compares NextWake with the
// bisection-only reference over 20k random queues: up to 12 packets over
// one to three apps, all three profiles, a custom monotone one and one
// that turns NaN past its deadline, Θ from 0 to 7 and three slot lengths.
// Each queue is asked with stop at zero, one and two candidate slots (one
// of them off the slot grid), on the slot where the gate opens and one
// slot past it, and far out. At every slot the test probes on its way to
// the crossing, and at every stop, the early-exit gateAt must agree with
// the gate over the full sum.
func TestNextWakeMatchesBisectionReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	names := []string{"weibo", "mail", "cloud"}
	mk := []func(time.Duration) profile.Profile{
		profile.Mail, profile.Weibo, profile.Cloud,
		func(d time.Duration) profile.Profile {
			return profile.Custom("steps", d, func(x float64) float64 { return math.Floor(4*x) / 4 })
		},
		func(d time.Duration) profile.Profile {
			return profile.Custom("nan", d, func(x float64) float64 {
				if x > 1 {
					return math.NaN()
				}
				return x
			})
		},
	}
	gateAgrees := func(e *ETrain, q *sched.Queues, at time.Duration) bool {
		if got, want := e.gateAt(q, at), e.gateOpen(q.CostAt(at)); got != want {
			t.Fatalf("Θ %v at %v: gateAt = %v, gate over P(t) = %v is %v", e.opts.Theta, at, got, q.CostAt(at), want)
		}
		return e.gateOpen(q.CostAt(at))
	}
	thetas := []float64{0, 0.25, 1, 2, 4, 7}
	strategies := make([]*ETrain, len(thetas))
	for i, theta := range thetas {
		e, err := New(Options{Theta: theta, K: 20})
		if err != nil {
			t.Fatal(err)
		}
		strategies[i] = e
	}
	slots := []time.Duration{time.Second, 1500 * time.Millisecond, time.Minute}
	crossings := 0
	for trial := 0; trial < 20000; trial++ {
		apps := names[:1+rng.Intn(len(names))]
		var pkts []workload.Packet
		for id := rng.Intn(13); id > 0; id-- {
			pkts = append(pkts, workload.Packet{
				ID:        id,
				App:       apps[rng.Intn(len(apps))],
				ArrivedAt: time.Duration(rng.Intn(200)) * time.Second,
				Size:      1000,
				Profile:   mk[rng.Intn(len(mk))](time.Duration(10+rng.Intn(120)) * time.Second),
			})
		}
		slices.SortStableFunc(pkts, func(a, b workload.Packet) int { return cmp.Compare(a.ArrivedAt, b.ArrivedAt) })
		q := sched.NewQueues()
		for _, p := range pkts {
			q.Add(p)
		}
		e := strategies[rng.Intn(len(strategies))]
		slot := slots[rng.Intn(len(slots))]
		now := time.Duration(rng.Intn(300)) * time.Second
		stops := []time.Duration{now, now + slot, now + 2*slot, now + slot + 1, now + time.Duration(rng.Intn(3000))*slot}
		for i := time.Duration(0); i < 3000; i++ {
			if gateAgrees(e, q, now+i*slot) {
				stops = append(stops, now+i*slot, now+(i+1)*slot)
				crossings++
				break
			}
		}
		for _, stop := range stops {
			gateAgrees(e, q, stop)
			if got, want := e.NextWake(q, now, stop, slot), refNextWake(e, q, now, stop, slot); got != want {
				t.Fatalf("trial %d (Θ %v, slot %v, now %v, stop %v): NextWake = %v, want %v", trial, e.opts.Theta, slot, now, stop, got, want)
			}
		}
	}
	if crossings == 0 {
		t.Fatal("no queue's gate opened")
	}
}
