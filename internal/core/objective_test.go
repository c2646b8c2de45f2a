package core

import (
	"math"
	"testing"
	"time"

	"etrain/internal/profile"
	"etrain/internal/randx"
	"etrain/internal/sched"
	"etrain/internal/workload"
)

// driftObjective computes the paper's Eq. 7 objective for a selection:
// Σ_i [ P̄_i·x_i − x_i²/2 ] with x_i = Σ_{u ∈ Q*_i} φ_u(t).
func driftObjective(pbar map[string]float64, selected []workload.Packet, nextSlot time.Duration) float64 {
	x := make(map[string]float64)
	for _, p := range selected {
		x[p.App] += p.Cost(nextSlot)
	}
	total := 0.0
	for app, xi := range x {
		total += pbar[app]*xi - xi*xi/2
	}
	return total
}

// bruteForceBest enumerates every subset of the queued packets with
// |Q*| ≤ limit and returns the maximum drift objective.
func bruteForceBest(q *sched.Queues, nextSlot time.Duration, limit int) float64 {
	var all []workload.Packet
	q.Each(func(p workload.Packet) { all = append(all, p) })
	pbar := make(map[string]float64)
	for _, app := range q.Apps() {
		pbar[app] = q.SpeculativeAppCostAt(app, nextSlot)
	}
	best := 0.0
	n := len(all)
	for mask := 0; mask < 1<<n; mask++ {
		var sel []workload.Packet
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, all[i])
			}
		}
		if len(sel) > limit {
			continue
		}
		if obj := driftObjective(pbar, sel, nextSlot); obj > best {
			best = obj
		}
	}
	return best
}

// TestGreedyNearOptimalDrift verifies the Eq. 9 greedy against exhaustive
// search on random small queues: the paper calls it a "near-optimal"
// heuristic; on these instances it should reach at least 90% of the
// exhaustive optimum (and usually 100%).
func TestGreedyNearOptimalDrift(t *testing.T) {
	src := randx.New(77)
	profiles := []profile.Profile{
		profile.Mail(60 * time.Second),
		profile.Weibo(30 * time.Second),
		profile.Cloud(120 * time.Second),
	}
	apps := []string{"mail", "weibo", "cloud"}
	now := 90 * time.Second
	nextSlot := now + time.Second

	var e ETrain
	for trial := 0; trial < 50; trial++ {
		q := sched.NewQueues()
		qCopy := sched.NewQueues()
		n := 3 + src.Intn(6)
		for i := 0; i < n; i++ {
			which := src.Intn(len(apps))
			p := workload.Packet{
				ID:        i,
				App:       apps[which],
				ArrivedAt: time.Duration(src.Intn(int(now.Seconds()))) * time.Second,
				Size:      1000,
				Profile:   profiles[which],
			}
			q.Add(p)
			qCopy.Add(p)
		}
		limit := 1 + src.Intn(3)

		pbar := make(map[string]float64)
		for _, app := range q.Apps() {
			pbar[app] = q.SpeculativeAppCostAt(app, nextSlot)
		}
		optimum := bruteForceBest(q, nextSlot, limit)

		selected := e.greedySelect(qCopy, nextSlot, limit)
		got := driftObjective(pbar, selected, nextSlot)

		if optimum <= 1e-12 {
			// All costs zero; greedy may select zero-gain packets freely.
			continue
		}
		if got < 0.90*optimum-1e-9 {
			t.Fatalf("trial %d: greedy objective %.6f below 90%% of optimum %.6f (limit %d, n %d)",
				trial, got, optimum, limit, n)
		}
		if got > optimum+1e-9 {
			t.Fatalf("trial %d: greedy %.6f exceeds exhaustive optimum %.6f — objective bug",
				trial, got, optimum)
		}
	}
}

// TestGreedyMatchesBruteForceSingleSelection checks the K(t)=1 case exactly:
// with one pick, greedy must equal the exhaustive optimum.
func TestGreedyMatchesBruteForceSingleSelection(t *testing.T) {
	src := randx.New(101)
	now := 45 * time.Second
	nextSlot := now + time.Second
	var e ETrain
	for trial := 0; trial < 30; trial++ {
		q := sched.NewQueues()
		qCopy := sched.NewQueues()
		n := 2 + src.Intn(5)
		for i := 0; i < n; i++ {
			p := workload.Packet{
				ID:        i,
				App:       "weibo",
				ArrivedAt: time.Duration(src.Intn(44)) * time.Second,
				Size:      1000,
				Profile:   profile.Weibo(30 * time.Second),
			}
			q.Add(p)
			qCopy.Add(p)
		}
		pbar := map[string]float64{"weibo": q.SpeculativeAppCostAt("weibo", nextSlot)}
		optimum := bruteForceBest(q, nextSlot, 1)
		selected := e.greedySelect(qCopy, nextSlot, 1)
		got := driftObjective(pbar, selected, nextSlot)
		if math.Abs(got-optimum) > 1e-9 {
			t.Fatalf("trial %d: K=1 greedy %.6f != optimum %.6f", trial, got, optimum)
		}
	}
}
