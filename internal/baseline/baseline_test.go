package baseline

import (
	"testing"
	"time"

	"etrain/internal/profile"
	"etrain/internal/sched"
	"etrain/internal/workload"
)

func pkt(id int, app string, arrived time.Duration) workload.Packet {
	return workload.Packet{
		ID: id, App: app, ArrivedAt: arrived, Size: 1000,
		Profile: profile.Weibo(30 * time.Second),
	}
}

func ctx(now time.Duration, q *sched.Queues) *sched.SlotContext {
	return &sched.SlotContext{Now: now, SlotLength: time.Second, Queues: q}
}

func TestImmediateDrainsEverything(t *testing.T) {
	b := NewImmediate()
	q := sched.NewQueues()
	q.Add(pkt(1, "a", 2*time.Second))
	q.Add(pkt(2, "b", time.Second))
	q.Add(pkt(3, "a", 3*time.Second))
	got := b.Schedule(ctx(5*time.Second, q))
	if len(got) != 3 {
		t.Fatalf("baseline drained %d, want 3", len(got))
	}
	// Arrival order across apps.
	if got[0].ID != 2 || got[1].ID != 1 || got[2].ID != 3 {
		t.Fatalf("drain order = %d,%d,%d, want 2,1,3", got[0].ID, got[1].ID, got[2].ID)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty")
	}
	if b.Name() != "baseline" || b.SlotLength() != time.Second {
		t.Fatal("metadata wrong")
	}
}

func TestImmediateEmpty(t *testing.T) {
	b := NewImmediate()
	if got := b.Schedule(ctx(0, sched.NewQueues())); got != nil {
		t.Fatalf("drained %v from empty queues", got)
	}
}

func TestPerESRejectsNegativeOmega(t *testing.T) {
	if _, err := NewPerES(-1); err == nil {
		t.Fatal("negative Omega accepted")
	}
}

func TestPerESDefaults(t *testing.T) {
	p, err := NewPerES(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.SlotLength() != time.Second {
		t.Fatalf("slot = %v, want 1s", p.SlotLength())
	}
	if p.Name() != "peres" {
		t.Fatalf("name = %q", p.Name())
	}
	if p.v <= 0 {
		t.Fatal("V not initialized")
	}
}

func TestPerESTransmitsDeadlineViolators(t *testing.T) {
	p, err := NewPerES(5)
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	q.Add(pkt(1, "a", 0)) // deadline 30 s
	c := ctx(31*time.Second, q)
	c.MeanBandwidth = 100e3
	c.EstimateBandwidth = func() float64 { return 1 } // terrible channel
	got := p.Schedule(c)
	if len(got) != 1 {
		t.Fatalf("deadline violator not forced out: %d released", len(got))
	}
}

func TestPerESHoldsFreshPacketsOnBadChannel(t *testing.T) {
	p, err := NewPerES(5)
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	q.Add(pkt(1, "a", 9*time.Second))
	c := ctx(10*time.Second, q)
	c.MeanBandwidth = 100e3
	c.EstimateBandwidth = func() float64 { return 1e3 } // 1% of average
	got := p.Schedule(c)
	if len(got) != 0 {
		t.Fatalf("fresh packet released on terrible channel: %d", len(got))
	}
}

func TestPerESDrainsOnGoodChannelWithBacklog(t *testing.T) {
	p, err := NewPerES(5)
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	for i := 0; i < 10; i++ {
		q.Add(pkt(i, "a", 0))
	}
	c := ctx(20*time.Second, q) // each packet costs 20/30
	c.MeanBandwidth = 100e3
	c.EstimateBandwidth = func() float64 { return 300e3 } // 3× average
	got := p.Schedule(c)
	if len(got) != 10 {
		t.Fatalf("good channel with backlog released %d, want 10", len(got))
	}
}

func TestPerESDynamicVConverges(t *testing.T) {
	p, err := NewPerES(0.01) // tiny Ω: V should shrink
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	q.Add(pkt(1, "a", 0))
	v0 := p.v
	c := ctx(20*time.Second, q)
	c.MeanBandwidth = 100e3
	c.EstimateBandwidth = func() float64 { return 100 }
	for i := 0; i < 200; i++ {
		p.Schedule(c)
		if q.Len() == 0 {
			q.Add(pkt(i+100, "a", 0))
		}
	}
	if p.v >= v0 {
		t.Fatalf("V did not shrink toward performance: %v -> %v", v0, p.v)
	}

	// Large Ω with an empty cost signal: V should grow (save energy).
	p2, err := NewPerES(100)
	if err != nil {
		t.Fatal(err)
	}
	v0 = p2.v
	empty := sched.NewQueues()
	for i := 0; i < 200; i++ {
		p2.Schedule(ctx(time.Duration(i)*time.Second, empty))
	}
	if p2.v <= v0 {
		t.Fatalf("V did not grow under slack cost bound: %v -> %v", v0, p2.v)
	}
}

func TestETimeRejectsNegativeV(t *testing.T) {
	if _, err := NewETime(-1); err == nil {
		t.Fatal("negative V accepted")
	}
}

func TestETimeDefaults(t *testing.T) {
	e, err := NewETime(4)
	if err != nil {
		t.Fatal(err)
	}
	if e.SlotLength() != 60*time.Second {
		t.Fatalf("slot = %v, want 60s (paper-suggested)", e.SlotLength())
	}
	if e.Name() != "etime" {
		t.Fatalf("name = %q", e.Name())
	}
}

func TestETimeAllOrNothing(t *testing.T) {
	e, err := NewETime(4)
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	q.Add(pkt(1, "a", 0))
	q.Add(pkt(2, "b", 0))

	hold := &sched.SlotContext{
		Now: 60 * time.Second, SlotLength: 60 * time.Second, Queues: q,
		MeanBandwidth: 100e3, EstimateBandwidth: func() float64 { return 100 },
	}
	if got := e.Schedule(hold); len(got) != 0 {
		t.Fatalf("eTime transmitted %d on terrible channel with small backlog", len(got))
	}

	drain := &sched.SlotContext{
		Now: 120 * time.Second, SlotLength: 60 * time.Second, Queues: q,
		MeanBandwidth: 100e3, EstimateBandwidth: func() float64 { return 300e3 },
	}
	got := e.Schedule(drain)
	if len(got) != 2 {
		t.Fatalf("eTime drained %d, want all 2", len(got))
	}
}

func TestETimeBacklogPressureForcesDrain(t *testing.T) {
	// Even on a bad channel, waiting long enough must force a drain
	// (Lyapunov stability), since pressure grows with waiting time.
	e, err := NewETime(10)
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	q.Add(pkt(1, "a", 0))
	badChannel := func() float64 { return 20e3 } // 20% of average
	drained := false
	for slot := 1; slot <= 60; slot++ {
		c := &sched.SlotContext{
			Now:        time.Duration(slot) * 60 * time.Second,
			SlotLength: 60 * time.Second, Queues: q,
			MeanBandwidth: 100e3, EstimateBandwidth: badChannel,
		}
		if got := e.Schedule(c); len(got) > 0 {
			drained = true
			break
		}
	}
	if !drained {
		t.Fatal("eTime never drained despite growing backlog pressure")
	}
}

func TestETimeEmptyQueues(t *testing.T) {
	e, err := NewETime(1)
	if err != nil {
		t.Fatal(err)
	}
	c := &sched.SlotContext{Now: 0, SlotLength: 60 * time.Second, Queues: sched.NewQueues()}
	if got := e.Schedule(c); got != nil {
		t.Fatalf("released %v from empty queues", got)
	}
}

func TestStrategiesWithoutEstimatorFallBack(t *testing.T) {
	// Without a channel estimator both strategies assume neutral quality
	// and still function.
	p, err := NewPerES(0.1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewETime(0.5)
	if err != nil {
		t.Fatal(err)
	}
	q1 := sched.NewQueues()
	q2 := sched.NewQueues()
	for i := 0; i < 5; i++ {
		q1.Add(pkt(i, "a", 0))
		q2.Add(pkt(i, "a", 0))
	}
	if got := p.Schedule(ctx(25*time.Second, q1)); len(got) == 0 {
		t.Fatal("PerES inert without estimator")
	}
	c := &sched.SlotContext{Now: 60 * time.Second, SlotLength: 60 * time.Second, Queues: q2}
	if got := e.Schedule(c); len(got) == 0 {
		t.Fatal("eTime inert without estimator")
	}
}
