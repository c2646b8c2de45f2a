package sched

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"etrain/internal/profile"
	"etrain/internal/workload"
)

// AppLen returns the number of packets queued for app.
func (q *Queues) AppLen(app string) int { return len(q.View(app)) }

func pkt(id int, app string, arrived time.Duration) workload.Packet {
	return workload.Packet{
		ID:        id,
		App:       app,
		ArrivedAt: arrived,
		Size:      1000,
		Profile:   profile.Weibo(30 * time.Second),
	}
}

func TestAddAndLen(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "b", time.Second))
	q.Add(pkt(3, "a", 2*time.Second))
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	if q.AppLen("a") != 2 || q.AppLen("b") != 1 {
		t.Fatalf("AppLen a=%d b=%d", q.AppLen("a"), q.AppLen("b"))
	}
}

func TestAppsRegistrationOrder(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "zeta", 0))
	q.Add(pkt(2, "alpha", 0))
	q.Add(pkt(3, "zeta", 0))
	apps := q.AppsView()
	if len(apps) != 2 || apps[0] != "zeta" || apps[1] != "alpha" {
		t.Fatalf("AppsView = %v, want [zeta alpha] (registration order)", apps)
	}
}

func TestEachDeterministicOrder(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "b", 0))
	q.Add(pkt(2, "a", 0))
	q.Add(pkt(3, "b", time.Second))
	var ids []int
	q.Each(func(p workload.Packet) { ids = append(ids, p.ID) })
	want := []int{1, 3, 2}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", ids, want)
		}
	}
}

func TestPopAt(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "b", 0))
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "a", time.Second))
	q.Add(pkt(3, "a", 2*time.Second))
	if p := q.PopAt(1, 1); p.ID != 2 || p.App != "a" {
		t.Fatalf("PopAt(1, 1) = %+v", p)
	}
	if q.Len() != 3 || q.AppLen("a") != 2 || q.AppLen("b") != 1 {
		t.Fatalf("after pop: Len %d, AppLen a=%d b=%d", q.Len(), q.AppLen("a"), q.AppLen("b"))
	}
	// Remaining order preserved.
	if pkts := q.ViewAt(1); pkts[0].ID != 1 || pkts[1].ID != 3 {
		t.Fatalf("remaining order = %v, %v", pkts[0].ID, pkts[1].ID)
	}
}

// TestPopHead: within one app PopOldest takes the head of the queue, equal
// arrivals in queue order, so draining an app yields its queue in order.
func TestPopHead(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "a", 0))
	q.Add(pkt(3, "a", time.Second))
	for _, want := range []int{1, 2, 3} {
		if p := q.PopOldest(); p.ID != want {
			t.Fatalf("PopOldest = %+v, want packet %d", p, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

func TestCostAt(t *testing.T) {
	q := NewQueues()
	// Weibo profile: cost = d/30s up to 1.
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "b", 0))
	got := q.CostAt(15 * time.Second)
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("CostAt = %v, want 1.0 (2 × 0.5)", got)
	}
	if got := q.AppCostAt("a", 15*time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("AppCostAt = %v, want 0.5", got)
	}
}

func TestSpeculativeCost(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 0))
	spec := q.SpeculativeAppCostAt("a", 16*time.Second)
	now := q.AppCostAt("a", 15*time.Second)
	if spec <= now {
		t.Fatalf("speculative cost %v should exceed current %v", spec, now)
	}
}

// TestOldest: PopOldest takes the earliest arrival across apps, and of
// equal arrivals the one in the app registered first.
func TestOldest(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 5*time.Second))
	q.Add(pkt(2, "b", 2*time.Second))
	q.Add(pkt(3, "a", 9*time.Second))
	q.Add(pkt(4, "c", 5*time.Second))
	for _, want := range []int{2, 1, 4, 3} {
		if p := q.PopOldest(); p.ID != want {
			t.Fatalf("PopOldest = %+v, want packet %d", p, want)
		}
	}
}

func TestValidateSelection(t *testing.T) {
	good := []workload.Packet{pkt(1, "a", 0), pkt(2, "a", 0)}
	if err := ValidateSelection(good); err != nil {
		t.Fatal(err)
	}
	dup := []workload.Packet{pkt(1, "a", 0), pkt(1, "a", 0)}
	if err := ValidateSelection(dup); err == nil {
		t.Fatal("duplicate selection validated")
	}
}

// Property: packets added then popped one by one conserve the population.
func TestConservationProperty(t *testing.T) {
	prop := func(ids []uint8) bool {
		q := NewQueues()
		seen := make(map[int]bool)
		added := 0
		for _, raw := range ids {
			id := int(raw)
			if seen[id] {
				continue
			}
			seen[id] = true
			q.Add(pkt(id, "app", time.Duration(id)*time.Second))
			added++
		}
		popped := 0
		for q.Len() > 0 {
			q.PopOldest()
			popped++
		}
		return popped == added && q.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
