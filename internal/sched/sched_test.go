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
	apps := q.Apps()
	if len(apps) != 2 || apps[0] != "zeta" || apps[1] != "alpha" {
		t.Fatalf("Apps = %v, want [zeta alpha] (registration order)", apps)
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

func TestPopByID(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "a", time.Second))
	q.Add(pkt(3, "a", 2*time.Second))
	p, ok := q.PopByID("a", 2)
	if !ok || p.ID != 2 {
		t.Fatalf("PopByID = %+v ok=%v", p, ok)
	}
	if q.AppLen("a") != 2 {
		t.Fatalf("AppLen after pop = %d", q.AppLen("a"))
	}
	if _, ok := q.PopByID("a", 2); ok {
		t.Fatal("popped packet 2 twice")
	}
	if _, ok := q.PopByID("missing", 1); ok {
		t.Fatal("popped from unknown app")
	}
	// Remaining order preserved.
	pkts := q.Packets("a")
	if pkts[0].ID != 1 || pkts[1].ID != 3 {
		t.Fatalf("remaining order = %v, %v", pkts[0].ID, pkts[1].ID)
	}
}

func TestPopHead(t *testing.T) {
	q := NewQueues()
	if _, ok := q.PopHead("a"); ok {
		t.Fatal("popped from empty queue")
	}
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "a", time.Second))
	p, ok := q.PopHead("a")
	if !ok || p.ID != 1 {
		t.Fatalf("PopHead = %+v", p)
	}
}

func TestPacketsReturnsCopy(t *testing.T) {
	q := NewQueues()
	q.Add(pkt(1, "a", 0))
	pkts := q.Packets("a")
	pkts[0].ID = 999
	if q.Packets("a")[0].ID == 999 {
		t.Fatal("Packets leaked internal state")
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

func TestOldest(t *testing.T) {
	q := NewQueues()
	if _, ok := q.Oldest(); ok {
		t.Fatal("Oldest on empty queues")
	}
	q.Add(pkt(1, "a", 5*time.Second))
	q.Add(pkt(2, "b", 2*time.Second))
	q.Add(pkt(3, "a", 9*time.Second))
	p, ok := q.Oldest()
	if !ok || p.ID != 2 {
		t.Fatalf("Oldest = %+v", p)
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
		for {
			if _, ok := q.PopHead("app"); !ok {
				break
			}
			popped++
		}
		return popped == added && q.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
