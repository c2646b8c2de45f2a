package android

import (
	"testing"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/core"
	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/radio"
)

// Failure-injection tests: the live stack must degrade gracefully when
// trains die, the channel collapses, or apps misbehave.

func TestTrainDiesMidRunBypassEngages(t *testing.T) {
	d := newDevice(t)
	svc, err := StartService(d, ServiceOptions{
		Core:        core.Options{Theta: 100, K: core.KInfinite},
		BypassAfter: 120 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	train := heartbeat.WeChat() // first beat at 0
	// The train dies right after its first beat: the next one would come
	// after the run.
	train.Policy = heartbeat.FixedCycle(time.Hour)
	if _, err := StartTrain(d, train, true); err != nil {
		t.Fatal(err)
	}

	mail := NewCargoApp(d, "mail", profile.Mail(time.Hour))
	mail.ScheduleSubmit(30*time.Second, 5*1024)

	d.Run(10 * time.Minute)
	delivered := mail.Delivered()
	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets after train death, want bypass flush", len(delivered))
	}
	// Flushed once the bypass window expired (last beat at 0 + 120 s).
	if at := delivered[0].StartedAt; at < 120*time.Second || at > 125*time.Second {
		t.Fatalf("bypass flush at %v, want shortly after 120s", at)
	}
	if svc.QueuedCount() != 0 {
		t.Fatal("packets still queued after bypass")
	}
}

func TestDeepFadeStretchesTransmissions(t *testing.T) {
	// A 1 KB/s link: the 378 B QQ heartbeat takes ~0.38 s; a 100 KB cloud
	// packet takes ~100 s, during which everything else queues behind it.
	bw, err := bandwidth.Constant(1024, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(radio.GalaxyS43G(), bw)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StartService(d, ServiceOptions{
		Core: core.Options{Theta: 0, K: core.KInfinite},
	}); err != nil {
		t.Fatal(err)
	}
	train := heartbeat.QQ()
	train.FirstAt = 10 * time.Second
	if _, err := StartTrain(d, train, true); err != nil {
		t.Fatal(err)
	}
	cloud := NewCargoApp(d, "cloud", profile.Cloud(time.Hour))
	cloud.ScheduleSubmit(5*time.Second, 100*1024)
	weibo := NewCargoApp(d, "weibo", profile.Weibo(time.Hour))
	weibo.ScheduleSubmit(20*time.Second, 1024)

	d.Run(10 * time.Minute)
	txs := d.Timeline().Transmissions()
	if len(txs) < 3 {
		t.Fatalf("only %d transmissions", len(txs))
	}
	// No overlap despite long in-flight transmissions.
	for i := 1; i < len(txs); i++ {
		if txs[i].Start < txs[i-1].End() {
			t.Fatalf("overlap under deep fade at %d", i)
		}
	}
	// The cloud packet's transmission really took ~100 s.
	for _, tx := range txs {
		if tx.Size == 100*1024 && tx.TxTime < 90*time.Second {
			t.Fatalf("100 KB at 1 KB/s took only %v", tx.TxTime)
		}
	}
}

func TestDoubleDecisionIsIdempotent(t *testing.T) {
	// A duplicated TransmitDecision (e.g. a replayed broadcast) must not
	// transmit the same packet twice.
	d := newDevice(t)
	defaultService(t, d, 100)
	app := NewCargoApp(d, "weibo", profile.Weibo(time.Minute))
	id := -1
	d.Loop.Schedule(time.Second, func(time.Duration) { id = app.Submit(1024) })
	d.Loop.Schedule(2*time.Second, func(time.Duration) {
		decision := TransmitDecision{App: "weibo", PacketIDs: []int{id}}
		d.Bus.Broadcast(Intent{Action: ActionTransmitDecision, Payload: decision})
		d.Bus.Broadcast(Intent{Action: ActionTransmitDecision, Payload: decision})
	})
	d.Run(10 * time.Second)
	if got := len(app.Delivered()); got != 1 {
		t.Fatalf("duplicated decision transmitted %d times", got)
	}
}

func TestDecisionForUnknownPacketIgnored(t *testing.T) {
	d := newDevice(t)
	defaultService(t, d, 100)
	app := NewCargoApp(d, "weibo", profile.Weibo(time.Minute))
	d.Loop.Schedule(time.Second, func(time.Duration) {
		d.Bus.Broadcast(Intent{
			Action:  ActionTransmitDecision,
			Payload: TransmitDecision{App: "weibo", PacketIDs: []int{424242}},
		})
	})
	d.Run(5 * time.Second)
	if len(app.Delivered()) != 0 {
		t.Fatal("phantom packet transmitted")
	}
}

func TestMalformedIntentPayloadsIgnored(t *testing.T) {
	d := newDevice(t)
	svc := defaultService(t, d, 1)
	d.Loop.Schedule(time.Second, func(time.Duration) {
		d.Bus.Broadcast(Intent{Action: ActionHeartbeatSent, Payload: "not a heartbeat"})
		d.Bus.Broadcast(Intent{Action: ActionSubmitRequest, Payload: 42})
		d.Bus.Broadcast(Intent{Action: ActionRegisterCargo, Payload: nil})
	})
	d.Run(5 * time.Second)
	if svc.BeatsObserved() != 0 || svc.QueuedCount() != 0 {
		t.Fatal("malformed payloads were processed")
	}
}
