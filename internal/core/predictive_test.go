package core

import (
	"testing"
	"time"

	"etrain/internal/heartbeat"
	"etrain/internal/sched"
)

func predictiveCtx(now time.Duration, beats []heartbeat.Beat, q *sched.Queues) *sched.SlotContext {
	return &sched.SlotContext{
		Now: now, SlotLength: time.Second,
		HeartbeatNow: len(beats) > 0, Beats: beats,
		Queues: q,
	}
}

func beat(app string, at time.Duration) heartbeat.Beat {
	return heartbeat.Beat{App: app, At: at, Size: 100}
}

func TestNewPredictiveValidates(t *testing.T) {
	if _, err := NewPredictive(Options{Theta: -1, K: 1}, 5); err == nil {
		t.Fatal("invalid inner options accepted")
	}
	p, err := NewPredictive(Options{Theta: 1, K: KInfinite}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "etrain-predictive" {
		t.Fatalf("name = %q", p.Name())
	}
	if p.SlotLength() != time.Second {
		t.Fatalf("slot = %v", p.SlotLength())
	}
}

func TestPredictiveLearnsCycle(t *testing.T) {
	p, err := NewPredictive(Options{Theta: 100, K: KInfinite}, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	// Feed three warmup beats of a 100 s cycle.
	for i := 0; i < 3; i++ {
		at := time.Duration(i) * 100 * time.Second
		p.Schedule(predictiveCtx(at, []heartbeat.Beat{beat("qq", at)}, q))
	}
	if p.cycle["qq"] != 100*time.Second {
		t.Fatalf("learned cycles = %v, want qq:100s", p.cycle)
	}
}

func TestPredictiveFiresOnPredictedSlot(t *testing.T) {
	p, err := NewPredictive(Options{Theta: 100, K: KInfinite}, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	for i := 0; i < 3; i++ {
		at := time.Duration(i) * 100 * time.Second
		p.Schedule(predictiveCtx(at, []heartbeat.Beat{beat("qq", at)}, q))
	}
	// A packet waits; Θ is huge, so only a (predicted) train releases it.
	q.Add(weiboPkt(1, 210*time.Second))
	if got := p.Schedule(predictiveCtx(250*time.Second, nil, q)); len(got) != 0 {
		t.Fatalf("released %d packets on a non-predicted slot", len(got))
	}
	// Next predicted beat: anchor 200 s + 100 s = 300 s (no live beat fed).
	got := p.Schedule(predictiveCtx(300*time.Second, nil, q))
	if len(got) != 1 {
		t.Fatal("predicted train slot did not release the packet")
	}
}

func TestPredictiveUsesRealBeatsDuringWarmup(t *testing.T) {
	p, err := NewPredictive(Options{Theta: 100, K: KInfinite}, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	q.Add(weiboPkt(1, 0))
	got := p.Schedule(predictiveCtx(50*time.Second, []heartbeat.Beat{beat("qq", 50*time.Second)}, q))
	if len(got) != 1 {
		t.Fatal("warmup beat did not release the packet")
	}
}

func TestSelectionPolicies(t *testing.T) {
	mk := func(sel SelectionPolicy) *ETrain {
		e, err := New(Options{Theta: 0, K: KInfinite, Selection: sel})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	fill := func() *sched.Queues {
		q := sched.NewQueues()
		q.Add(weiboPkt(1, 20*time.Second)) // newer, cheaper
		q.Add(weiboPkt(2, 0))              // older, costlier
		return q
	}
	// Non-heartbeat slot, K(t)=1: each policy picks its characteristic
	// packet.
	now := 30 * time.Second
	if got := mk(SelectEq9).Schedule(ctxAt(now, false, fill())); got[0].ID != 2 {
		t.Fatalf("eq9 picked %d, want costliest 2", got[0].ID)
	}
	if got := mk(SelectFIFO).Schedule(ctxAt(now, false, fill())); got[0].ID != 2 {
		t.Fatalf("fifo picked %d, want oldest 2", got[0].ID)
	}
	if got := mk(SelectCheapest).Schedule(ctxAt(now, false, fill())); got[0].ID != 1 {
		t.Fatalf("cheapest picked %d, want freshest 1", got[0].ID)
	}
}

func TestSelectionPoliciesDrainOnHeartbeat(t *testing.T) {
	for _, sel := range []SelectionPolicy{SelectEq9, SelectFIFO, SelectCheapest} {
		e, err := New(Options{Theta: 0, K: KInfinite, Selection: sel})
		if err != nil {
			t.Fatal(err)
		}
		q := sched.NewQueues()
		for i := 0; i < 5; i++ {
			q.Add(weiboPkt(i, time.Duration(i)*time.Second))
		}
		got := e.Schedule(ctxAt(time.Minute, true, q))
		if len(got) != 5 {
			t.Fatalf("policy %d flushed %d of 5", int(sel), len(got))
		}
		if err := sched.ValidateSelection(got); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUnknownSelectionRejected(t *testing.T) {
	if _, err := New(Options{Theta: 0, K: 1, Selection: SelectionPolicy(9)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestChannelGateHoldsDripsOnBadChannel(t *testing.T) {
	e, err := New(Options{Theta: 0.1, K: KInfinite, ChannelGated: true})
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	q.Add(weiboPkt(1, 0))
	ctx := ctxAt(30*time.Second, false, q)
	ctx.MeanBandwidth = 100e3
	ctx.EstimateBandwidth = func() float64 { return 10e3 } // bad channel
	if got := e.Schedule(ctx); len(got) != 0 {
		t.Fatal("gated drip released on bad channel")
	}
	ctx.EstimateBandwidth = func() float64 { return 200e3 } // good channel
	if got := e.Schedule(ctx); len(got) != 1 {
		t.Fatal("gated drip held on good channel")
	}
}

func TestChannelGateNeverBlocksHeartbeats(t *testing.T) {
	e, err := New(Options{Theta: 0.1, K: KInfinite, ChannelGated: true})
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewQueues()
	q.Add(weiboPkt(1, 0))
	ctx := ctxAt(30*time.Second, true, q)
	ctx.MeanBandwidth = 100e3
	ctx.EstimateBandwidth = func() float64 { return 1 }
	if got := e.Schedule(ctx); len(got) != 1 {
		t.Fatal("heartbeat piggyback blocked by channel gate")
	}
}
