package android

import (
	"testing"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/core"
	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/randx"
)

func newDevice(t *testing.T) *Device {
	t.Helper()
	bw, err := bandwidth.Constant(200e3, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDevice(radio.GalaxyS43G(), bw)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func defaultService(t *testing.T, d *Device, theta float64) *Service {
	t.Helper()
	s, err := StartService(d, ServiceOptions{
		Core: core.Options{Theta: theta, K: core.KInfinite},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// beatsSent counts the heartbeat transmissions on d's timeline.
func beatsSent(d *Device) int {
	n := 0
	for _, tx := range d.Timeline().Transmissions() {
		if tx.Kind == radio.TxHeartbeat {
			n++
		}
	}
	return n
}

// sendMessage schedules an IM data transmission (a chat message or photo)
// of ts's app at the given instant, leaving its heartbeat alarm untouched.
func sendMessage(ts *TrainService, at time.Duration, size int64) {
	ts.device.Loop.Schedule(at, func(time.Duration) {
		_, _ = ts.device.Transmit(size, radio.TxData, ts.app.Name)
	})
}

func TestBusDeliversInRegistrationOrder(t *testing.T) {
	d := newDevice(t)
	var order []int
	d.Bus.Register("x", func(time.Duration, Intent) { order = append(order, 1) })
	d.Bus.Register("x", func(time.Duration, Intent) { order = append(order, 2) })
	d.Bus.Register("y", func(time.Duration, Intent) { order = append(order, 3) })
	d.Bus.Broadcast(Intent{Action: "x"})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order = %v, want [1 2]", order)
	}
	if len(d.Bus.receivers["x"]) != 2 || len(d.Bus.receivers["y"]) != 1 {
		t.Fatal("receiver counts wrong")
	}
}

func TestDeviceRejectsBadConfig(t *testing.T) {
	bw, err := bandwidth.Constant(200e3, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDevice(radio.PowerModel{}, bw); err == nil {
		t.Fatal("invalid power model accepted")
	}
	if _, err := NewDevice(radio.GalaxyS43G(), nil); err == nil {
		t.Fatal("nil bandwidth accepted")
	}
}

func TestTrainServiceSendsHeartbeatsOnSchedule(t *testing.T) {
	d := newDevice(t)
	if _, err := StartTrain(d, heartbeat.WeChat(), false); err != nil {
		t.Fatal(err)
	}
	d.Run(time.Hour)
	// WeChat cycle 270 s: beats at 0, 270, ..., 3510 → 14 in an hour.
	if n := beatsSent(d); n != 14 {
		t.Fatalf("sent %d heartbeats, want 14", n)
	}
	txs := d.Timeline().Transmissions()
	if len(txs) != 14 {
		t.Fatalf("timeline has %d transmissions, want 14", len(txs))
	}
	if txs[1].Start != 270*time.Second {
		t.Fatalf("second beat at %v, want 270s", txs[1].Start)
	}
}

func TestTrainServiceAdaptiveCycle(t *testing.T) {
	d := newDevice(t)
	if _, err := StartTrain(d, heartbeat.NetEase(), false); err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Hour)
	want := len(heartbeat.NetEase().Schedule(2*time.Hour, nil))
	if n := beatsSent(d); n != want {
		t.Fatalf("NetEase sent %d beats, schedule says %d", n, want)
	}
}

func TestMessagesDoNotShiftHeartbeats(t *testing.T) {
	// Fig. 3's finding: IM data transmissions have no impact on heartbeat
	// timing. Run WeChat with and without mid-cycle messages and compare
	// its beat instants.
	beatTimes := func(withMessages bool) []time.Duration {
		d := newDevice(t)
		ts, err := StartTrain(d, heartbeat.WeChat(), false)
		if err != nil {
			t.Fatal(err)
		}
		if withMessages {
			// Offsets chosen so no message is in flight on the radio at a
			// beat instant: the claim is about the heartbeat *schedule*
			// (the alarm), not link-level serialization.
			for at := 37 * time.Second; at < time.Hour; at += 217 * time.Second {
				sendMessage(ts, at, 50*1024) // a photo
			}
		}
		d.Run(time.Hour)
		var beats []time.Duration
		for _, tx := range d.Timeline().Transmissions() {
			if tx.Kind == radio.TxHeartbeat {
				beats = append(beats, tx.Start)
			}
		}
		return beats
	}
	quiet := beatTimes(false)
	busy := beatTimes(true)
	if len(quiet) != len(busy) {
		t.Fatalf("message traffic changed beat count: %d vs %d", len(quiet), len(busy))
	}
	for i := range quiet {
		if quiet[i] != busy[i] {
			t.Fatalf("beat %d shifted: %v vs %v", i, quiet[i], busy[i])
		}
	}
}

func TestHookNotifiesMonitor(t *testing.T) {
	d := newDevice(t)
	svc := defaultService(t, d, 0.2)
	if _, err := StartTrain(d, heartbeat.WeChat(), true); err != nil {
		t.Fatal(err)
	}
	d.Run(time.Hour)
	if svc.BeatsObserved() != 14 {
		t.Fatalf("monitor observed %d beats, want 14", svc.BeatsObserved())
	}
	cycle, ok := svc.Detector().Cycle("wechat")
	if !ok || cycle != 270*time.Second {
		t.Fatalf("detected cycle %v ok=%v, want 270s", cycle, ok)
	}
}

func TestUnhookedTrainInvisibleToMonitor(t *testing.T) {
	d := newDevice(t)
	svc := defaultService(t, d, 0.2)
	if _, err := StartTrain(d, heartbeat.WeChat(), false); err != nil {
		t.Fatal(err)
	}
	d.Run(time.Hour)
	if svc.BeatsObserved() != 0 {
		t.Fatalf("monitor observed %d beats from unhooked train", svc.BeatsObserved())
	}
}

func TestCargoPiggybacksOnHeartbeat(t *testing.T) {
	d := newDevice(t)
	svc := defaultService(t, d, 100) // Θ huge: only trains release cargo
	train := heartbeat.WeChat()
	train.FirstAt = 100 * time.Second
	if _, err := StartTrain(d, train, true); err != nil {
		t.Fatal(err)
	}
	mail := NewCargoApp(d, "mail", profile.Mail(600*time.Second))
	mail.ScheduleSubmit(10*time.Second, 5*1024)
	d.Run(200 * time.Second)
	delivered := mail.Delivered()
	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(delivered))
	}
	got := delivered[0]
	// The packet must leave right after the 100 s heartbeat, not at 10 s.
	if got.StartedAt < 100*time.Second || got.StartedAt > 101*time.Second {
		t.Fatalf("packet started at %v, want right after the 100s heartbeat", got.StartedAt)
	}
	if svc.QueuedCount() != 0 {
		t.Fatal("service still holds packets")
	}
	// Verify tail sharing on the timeline: the data transmission begins
	// while the heartbeat's DCH tail is still hot.
	txs := d.Timeline().Transmissions()
	if len(txs) != 2 {
		t.Fatalf("timeline has %d transmissions, want 2", len(txs))
	}
	gap := txs[1].Start - txs[0].End()
	if gap > time.Second {
		t.Fatalf("piggyback gap = %v, want ~0", gap)
	}
}

func TestCargoReleasedByThetaWithoutTrain(t *testing.T) {
	d := newDevice(t)
	svc := defaultService(t, d, 0.3)
	train := heartbeat.QQ()
	train.FirstAt = 3000 * time.Second // far away, but keeps bypass inactive
	if _, err := StartTrain(d, train, true); err != nil {
		t.Fatal(err)
	}
	weibo := NewCargoApp(d, "weibo", profile.Weibo(30*time.Second))
	weibo.ScheduleSubmit(5*time.Second, 2048)
	d.Run(120 * time.Second)
	delivered := weibo.Delivered()
	if len(delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(delivered))
	}
	// Cost crosses Θ=0.3 at delay 9 s (0.3 × 30 s).
	delay := delivered[0].StartedAt - delivered[0].ArrivedAt
	if delay < 8*time.Second || delay > 12*time.Second {
		t.Fatalf("Θ-release delay = %v, want ~9-10s", delay)
	}
	_ = svc
}

func TestBypassWhenNoTrains(t *testing.T) {
	d := newDevice(t)
	svc, err := StartService(d, ServiceOptions{
		Core:        core.Options{Theta: 100, K: core.KInfinite},
		BypassAfter: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	mail := NewCargoApp(d, "mail", profile.Mail(600*time.Second))
	mail.ScheduleSubmit(10*time.Second, 5*1024)
	d.Run(300 * time.Second)
	delivered := mail.Delivered()
	if len(delivered) != 1 {
		t.Fatalf("bypass did not flush: %d delivered, %d queued", len(delivered), svc.QueuedCount())
	}
	if delivered[0].StartedAt > 75*time.Second {
		t.Fatalf("bypass flush at %v, want within ~BypassAfter of start", delivered[0].StartedAt)
	}
}

func TestUnregisteredCargoPassesThrough(t *testing.T) {
	d := newDevice(t)
	svc := defaultService(t, d, 100)
	// Submit a request without going through NewCargoApp registration.
	received := 0
	d.Bus.Register(ActionTransmitDecision, func(_ time.Duration, in Intent) {
		if dec, ok := in.Payload.(TransmitDecision); ok && dec.App == "rogue" {
			received++
		}
	})
	d.Loop.Schedule(5*time.Second, func(time.Duration) {
		d.Bus.Broadcast(Intent{
			Action:  ActionSubmitRequest,
			Payload: TransmissionRequest{App: "rogue", PacketID: 1, Size: 100},
		})
	})
	d.Run(10 * time.Second)
	if received != 1 {
		t.Fatalf("unregistered app got %d decisions, want immediate pass-through", received)
	}
	_ = svc
}

func TestFullStackEnergySavings(t *testing.T) {
	// Integration: the full Android stack (trains + service + cargo apps)
	// saves energy versus the same stack scheduling nothing (Θ=0 bypass
	// equivalent is approximated with immediate pass-through by not
	// registering the service).
	run := func(withETrain bool) (float64, int) {
		d := newDevice(t)
		src := randx.New(42)
		if withETrain {
			if _, err := StartService(d, ServiceOptions{
				Core: core.Options{Theta: 2.0, K: core.KInfinite},
			}); err != nil {
				t.Fatal(err)
			}
		} else {
			// Baseline: echo every submission straight back as a transmit
			// decision (transmit-on-arrival).
			d.Bus.Register(ActionSubmitRequest, func(_ time.Duration, in Intent) {
				if req, ok := in.Payload.(TransmissionRequest); ok {
					d.Bus.Broadcast(Intent{
						Action:  ActionTransmitDecision,
						Payload: TransmitDecision{App: req.App, PacketIDs: []int{req.PacketID}},
					})
				}
			})
		}
		for _, tr := range heartbeat.DefaultTrio() {
			if _, err := StartTrain(d, tr, withETrain); err != nil {
				t.Fatal(err)
			}
		}
		weibo := NewCargoApp(d, "weibo", profile.Weibo(90*time.Second))
		mail := NewCargoApp(d, "mail", profile.Mail(180*time.Second))
		horizon := 2 * time.Hour
		for at := time.Duration(0); at < horizon; at += time.Duration(20+src.Intn(40)) * time.Second {
			weibo.ScheduleSubmit(at, int64(500+src.Intn(4000)))
			if src.Float64() < 0.3 {
				mail.ScheduleSubmit(at, int64(2000+src.Intn(8000)))
			}
		}
		d.Run(horizon)
		delivered := len(weibo.Delivered()) + len(mail.Delivered())
		return d.Energy(horizon).Total(), delivered
	}

	without, deliveredWithout := run(false)
	with, deliveredWith := run(true)
	if with >= without {
		t.Fatalf("eTrain stack used %.0f J >= %.0f J without", with, without)
	}
	// Without the service every submission passes through instantly.
	if deliveredWithout == 0 {
		t.Fatal("no deliveries without eTrain")
	}
	// With the service, packets may remain queued at the horizon (no
	// forced flush in the live system), but most must be delivered.
	if float64(deliveredWith) < 0.9*float64(deliveredWithout) {
		t.Fatalf("eTrain delivered %d of %d packets", deliveredWith, deliveredWithout)
	}
}

func TestCargoAppMetadata(t *testing.T) {
	d := newDevice(t)
	defaultService(t, d, 1)
	prof := profile.Weibo(30 * time.Second)
	app := NewCargoApp(d, "weibo", prof)
	if app.Name() != "weibo" || app.profile != prof {
		t.Fatal("cargo metadata wrong")
	}
	if app.PendingCount() != 0 {
		t.Fatal("fresh app has pending packets")
	}
}

func TestMultipleCargoAppsIndependentDecisions(t *testing.T) {
	d := newDevice(t)
	defaultService(t, d, 100)
	train := heartbeat.WeChat()
	train.FirstAt = 50 * time.Second
	if _, err := StartTrain(d, train, true); err != nil {
		t.Fatal(err)
	}
	a := NewCargoApp(d, "a", profile.Weibo(300*time.Second))
	b := NewCargoApp(d, "b", profile.Cloud(300*time.Second))
	a.ScheduleSubmit(10*time.Second, 1000)
	b.ScheduleSubmit(20*time.Second, 2000)
	d.Run(100 * time.Second)
	if len(a.Delivered()) != 1 || len(b.Delivered()) != 1 {
		t.Fatalf("deliveries a=%d b=%d, want 1 each", len(a.Delivered()), len(b.Delivered()))
	}
	// Packet IDs are app-local; each app must only have transmitted its own.
	if a.Delivered()[0].PacketID != 0 || b.Delivered()[0].PacketID != 0 {
		t.Fatal("cross-app decision leakage")
	}
}
