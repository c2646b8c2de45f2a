package core

import (
	"testing"
	"testing/quick"
	"time"

	"etrain/internal/profile"
	"etrain/internal/sched"
	"etrain/internal/workload"
)

func newETrain(t *testing.T, theta float64, k int) *ETrain {
	t.Helper()
	e, err := New(Options{Theta: theta, K: k})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func weiboPkt(id int, arrived time.Duration) workload.Packet {
	return workload.Packet{
		ID: id, App: "weibo", ArrivedAt: arrived, Size: 2048,
		Profile: profile.Weibo(30 * time.Second),
	}
}

func mailPkt(id int, arrived time.Duration) workload.Packet {
	return workload.Packet{
		ID: id, App: "mail", ArrivedAt: arrived, Size: 5120,
		Profile: profile.Mail(60 * time.Second),
	}
}

func ctxAt(now time.Duration, hb bool, q *sched.Queues) *sched.SlotContext {
	return &sched.SlotContext{
		Now: now, SlotLength: time.Second, HeartbeatNow: hb, Queues: q,
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Theta: -1, K: 1},
		{Theta: 0, K: 0},
		{Theta: 0, K: 1, Slot: -time.Second},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Fatalf("options %d accepted: %+v", i, o)
		}
	}
	e, err := New(Options{Theta: 0.5, K: KInfinite})
	if err != nil {
		t.Fatal(err)
	}
	if e.SlotLength() != time.Second {
		t.Fatalf("default slot = %v, want 1s", e.SlotLength())
	}
	if e.Name() != "etrain" {
		t.Fatalf("Name = %q", e.Name())
	}
	if e.opts.Theta != 0.5 || e.opts.K != KInfinite {
		t.Fatalf("options = %+v", e.opts)
	}
}

func TestEmptyQueuesSelectNothing(t *testing.T) {
	e := newETrain(t, 0.2, 20)
	got := e.Schedule(ctxAt(0, true, sched.NewQueues()))
	if got != nil {
		t.Fatalf("selected %v from empty queues", got)
	}
}

func TestBelowThetaNoHeartbeatHolds(t *testing.T) {
	e := newETrain(t, 10.0, 20) // enormous Θ
	q := sched.NewQueues()
	q.Add(weiboPkt(1, 0))
	got := e.Schedule(ctxAt(10*time.Second, false, q))
	if len(got) != 0 {
		t.Fatalf("released %d packets below Θ without heartbeat", len(got))
	}
	if q.Len() != 1 {
		t.Fatal("packet vanished")
	}
}

func TestHeartbeatReleasesUpToK(t *testing.T) {
	e := newETrain(t, 10.0, 3)
	q := sched.NewQueues()
	for i := 0; i < 5; i++ {
		q.Add(weiboPkt(i, 0))
	}
	got := e.Schedule(ctxAt(10*time.Second, true, q))
	if len(got) != 3 {
		t.Fatalf("heartbeat released %d packets, want K=3", len(got))
	}
	if q.Len() != 2 {
		t.Fatalf("queue has %d left, want 2", q.Len())
	}
	if err := sched.ValidateSelection(got); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatWithKInfiniteFlushesAll(t *testing.T) {
	e := newETrain(t, 10.0, KInfinite)
	q := sched.NewQueues()
	for i := 0; i < 50; i++ {
		q.Add(weiboPkt(i, time.Duration(i)*time.Second))
	}
	got := e.Schedule(ctxAt(time.Minute, true, q))
	if len(got) != 50 {
		t.Fatalf("k=∞ heartbeat released %d, want all 50", len(got))
	}
	if q.Len() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestCostAboveThetaReleasesOne(t *testing.T) {
	e := newETrain(t, 0.4, 20)
	q := sched.NewQueues()
	q.Add(weiboPkt(1, 0))
	// At t=20s the weibo cost is 20/30 ≈ 0.67 ≥ 0.4.
	got := e.Schedule(ctxAt(20*time.Second, false, q))
	if len(got) != 1 {
		t.Fatalf("released %d packets above Θ, want K(t)=1", len(got))
	}
}

func TestNonHeartbeatSlotCapsAtOne(t *testing.T) {
	e := newETrain(t, 0.1, 20)
	q := sched.NewQueues()
	for i := 0; i < 4; i++ {
		q.Add(weiboPkt(i, 0))
	}
	got := e.Schedule(ctxAt(20*time.Second, false, q))
	if len(got) != 1 {
		t.Fatalf("non-heartbeat slot released %d, want 1", len(got))
	}
}

func TestZeroCostQueueHeldAtThetaZero(t *testing.T) {
	// Fresh mail packets cost zero before their deadline; with Θ=0 they
	// must still wait for a train (the P(t) > 0 refinement).
	e := newETrain(t, 0, KInfinite)
	q := sched.NewQueues()
	q.Add(mailPkt(1, 0))
	got := e.Schedule(ctxAt(10*time.Second, false, q))
	if len(got) != 0 {
		t.Fatal("zero-cost mail released without a heartbeat at Θ=0")
	}
	got = e.Schedule(ctxAt(10*time.Second, true, q))
	if len(got) != 1 {
		t.Fatal("mail not piggybacked on heartbeat")
	}
}

func TestMailReleasedAfterDeadlineCrossing(t *testing.T) {
	e := newETrain(t, 0, KInfinite)
	q := sched.NewQueues()
	q.Add(mailPkt(1, 0))
	// Past the 60 s deadline the f1 cost turns positive.
	got := e.Schedule(ctxAt(65*time.Second, false, q))
	if len(got) != 1 {
		t.Fatal("late mail packet still held")
	}
}

func TestGreedyPrefersCostlierPacket(t *testing.T) {
	e := newETrain(t, 0, KInfinite)
	q := sched.NewQueues()
	fresh := weiboPkt(1, 25*time.Second) // 5 s old at t=30
	old := weiboPkt(2, 0)                // 30 s old at t=30
	q.Add(fresh)
	q.Add(old)
	got := e.Schedule(ctxAt(30*time.Second, false, q))
	if len(got) != 1 {
		t.Fatalf("released %d, want 1", len(got))
	}
	if got[0].ID != 2 {
		t.Fatalf("greedy released packet %d, want the older/costlier 2", got[0].ID)
	}
}

func TestGreedyDrainsInGainOrder(t *testing.T) {
	e := newETrain(t, 0, KInfinite)
	q := sched.NewQueues()
	q.Add(weiboPkt(1, 20*time.Second))
	q.Add(weiboPkt(2, 0))
	q.Add(weiboPkt(3, 10*time.Second))
	got := e.Schedule(ctxAt(30*time.Second, true, q))
	if len(got) != 3 {
		t.Fatalf("released %d, want 3", len(got))
	}
	// First pick must be the costliest packet (oldest); later picks see a
	// shrinking marginal gain but still drain everything.
	if got[0].ID != 2 {
		t.Fatalf("first release = %d, want 2", got[0].ID)
	}
}

func TestScheduleConservation(t *testing.T) {
	prop := func(arrivals []uint8, hb bool) bool {
		e, err := New(Options{Theta: 0.2, K: 5})
		if err != nil {
			return false
		}
		q := sched.NewQueues()
		for i, a := range arrivals {
			q.Add(weiboPkt(i, time.Duration(a)*time.Second))
		}
		before := q.Len()
		got := e.Schedule(ctxAt(300*time.Second, hb, q))
		if sched.ValidateSelection(got) != nil {
			return false
		}
		limit := 1
		if hb {
			limit = 5
		}
		if len(got) > limit {
			return false
		}
		return q.Len()+len(got) == before
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiAppSelection(t *testing.T) {
	e := newETrain(t, 0, KInfinite)
	q := sched.NewQueues()
	q.Add(mailPkt(1, 0))
	q.Add(weiboPkt(2, 0))
	q.Add(workload.Packet{
		ID: 3, App: "cloud", ArrivedAt: 0, Size: 100 << 10,
		Profile: profile.Cloud(120 * time.Second),
	})
	got := e.Schedule(ctxAt(30*time.Second, true, q))
	if len(got) != 3 {
		t.Fatalf("heartbeat flush released %d of 3 apps' packets", len(got))
	}
}

// TestEmptyAppNameSelected checks that a packet of an app named "" is
// selected at a heartbeat slot by every selection policy: the name is
// valid cargo (wire.CargoArrival accepts it), not a "nothing found" mark.
func TestEmptyAppNameSelected(t *testing.T) {
	for _, policy := range []SelectionPolicy{SelectEq9, SelectFIFO, SelectCheapest} {
		e, err := New(Options{Theta: 1, K: KInfinite, Selection: policy})
		if err != nil {
			t.Fatal(err)
		}
		q := sched.NewQueues()
		p := weiboPkt(7, 10*time.Second)
		p.App = ""
		q.Add(p)
		got := e.Schedule(ctxAt(20*time.Second, true, q))
		if len(got) != 1 || got[0] != p || q.Len() != 0 {
			t.Errorf("policy %d: selected %v with %d left, want packet 7 alone", policy, ids(got), q.Len())
		}
	}
}
