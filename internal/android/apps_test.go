package android

import (
	"testing"
	"time"

	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/randx"
	"etrain/internal/simtime"
	"etrain/internal/workload"
)

// Realistic cargo application models: the three apps the paper built on top
// of eTrain (§V-5) — eTrain Mail, Luna Weibo and eTrain Cloud — as
// behaviour generators that drive the simulated stack in these tests. Each
// wraps a CargoApp client and submits traffic with its own characteristic
// pattern.

// MailApp models eTrain Mail: outgoing messages are composed at Poisson
// instants; a periodic background sync occasionally flushes a small batch
// of queued drafts at once.
type MailApp struct {
	cargo *CargoApp
	src   *randx.Source
}

// NewMailApp installs a mail client on the device. deadline parameterizes
// the f1 profile; meanCompose is the Poisson mean between composed mails.
func NewMailApp(device *Device, src *randx.Source, deadline, meanCompose time.Duration, horizon time.Duration) *MailApp {
	app := &MailApp{
		cargo: NewCargoApp(device, "mail", profile.Mail(deadline)),
		src:   src,
	}
	proc := randx.NewPoissonProcess(src.Split(), meanCompose)
	for _, at := range proc.AppendArrivalsUntil(nil, horizon) {
		size := int64(src.TruncatedNormal(5*1024, 2.5*1024, 1024))
		app.cargo.ScheduleSubmit(at, size)
	}
	// Background sync every 10 minutes: 0–2 extra drafts.
	simtime.NewAlarm(device.Loop, 10*time.Minute, 10*time.Minute, func(now time.Duration) {
		if now >= horizon {
			return
		}
		for i := 0; i < app.src.Intn(3); i++ {
			app.cargo.Submit(int64(app.src.TruncatedNormal(3*1024, 1024, 512)))
		}
	})
	return app
}

// Cargo exposes the underlying client (for delivery stats).
func (a *MailApp) Cargo() *CargoApp { return a.cargo }

// WeiboApp models Luna Weibo: bursts of uploads during "app use" sessions,
// interleaved with browse-triggered prefetch downloads — the behaviour the
// paper's deployed client recorded.
type WeiboApp struct {
	cargo *CargoApp
}

// NewWeiboApp installs a Weibo client replaying the given behaviour trace.
func NewWeiboApp(device *Device, deadline time.Duration, trace []workload.BehaviorRecord) *WeiboApp {
	app := &WeiboApp{
		cargo: NewCargoApp(device, "weibo", profile.Weibo(deadline)),
	}
	for _, r := range trace {
		if r.Size > 0 {
			app.cargo.ScheduleSubmit(r.At, r.Size)
		}
	}
	return app
}

// Cargo exposes the underlying client.
func (a *WeiboApp) Cargo() *CargoApp { return a.cargo }

// CloudApp models eTrain Cloud: large file uploads at sparse instants,
// each file split into chunks submitted together (a sync batch).
type CloudApp struct {
	cargo *CargoApp
}

// NewCloudApp installs a cloud-sync client. meanSync is the Poisson mean
// between file syncs; each sync submits 1–4 chunks of ~100 KB.
func NewCloudApp(device *Device, src *randx.Source, deadline, meanSync, horizon time.Duration) *CloudApp {
	app := &CloudApp{
		cargo: NewCargoApp(device, "cloud", profile.Cloud(deadline)),
	}
	proc := randx.NewPoissonProcess(src.Split(), meanSync)
	chunkSrc := src.Split()
	for _, at := range proc.AppendArrivalsUntil(nil, horizon) {
		chunks := 1 + chunkSrc.Intn(4)
		for c := 0; c < chunks; c++ {
			size := int64(chunkSrc.TruncatedNormal(100*1024, 50*1024, 10*1024))
			app.cargo.ScheduleSubmit(at, size)
		}
	}
	return app
}

// Cargo exposes the underlying client.
func (a *CloudApp) Cargo() *CargoApp { return a.cargo }

func TestMailAppGeneratesTraffic(t *testing.T) {
	d := newDevice(t)
	defaultService(t, d, 0)
	horizon := 2 * time.Hour
	app := NewMailApp(d, randx.New(1), 3*time.Minute, 5*time.Minute, horizon)
	for _, tr := range heartbeat.DefaultTrio() {
		if _, err := StartTrain(d, tr, true); err != nil {
			t.Fatal(err)
		}
	}
	d.Run(horizon)
	delivered := len(app.Cargo().Delivered()) + app.Cargo().PendingCount()
	// Poisson(5min over 2h) ≈ 24 composes plus sync batches.
	if delivered < 12 {
		t.Fatalf("mail app produced only %d packets", delivered)
	}
}

func TestMailAppDeterministic(t *testing.T) {
	run := func() int {
		d := newDevice(t)
		defaultService(t, d, 0)
		app := NewMailApp(d, randx.New(2), 3*time.Minute, 5*time.Minute, time.Hour)
		if _, err := StartTrain(d, heartbeat.WeChat(), true); err != nil {
			t.Fatal(err)
		}
		d.Run(time.Hour)
		return len(app.Cargo().Delivered())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("mail app not deterministic: %d vs %d", a, b)
	}
}

func TestWeiboAppReplaysTrace(t *testing.T) {
	d := newDevice(t)
	defaultService(t, d, 0)
	trace := workload.SynthesizeUser(randx.New(3), "u", workload.ClassModerate)
	app := NewWeiboApp(d, 30*time.Second, trace)
	if _, err := StartTrain(d, heartbeat.WeChat(), true); err != nil {
		t.Fatal(err)
	}
	d.Run(workload.SessionLength)
	withPayload := 0
	for _, r := range trace {
		if r.Size > 0 {
			withPayload++
		}
	}
	total := len(app.Cargo().Delivered()) + app.Cargo().PendingCount()
	if total != withPayload {
		t.Fatalf("weibo app holds %d packets, trace has %d with payload", total, withPayload)
	}
}

func TestCloudAppSubmitsChunkBatches(t *testing.T) {
	d := newDevice(t)
	defaultService(t, d, 0)
	app := NewCloudApp(d, randx.New(4), 5*time.Minute, 10*time.Minute, 2*time.Hour)
	if _, err := StartTrain(d, heartbeat.QQ(), true); err != nil {
		t.Fatal(err)
	}
	d.Run(2 * time.Hour)
	total := len(app.Cargo().Delivered()) + app.Cargo().PendingCount()
	if total < 5 {
		t.Fatalf("cloud app produced only %d chunks", total)
	}
	// Chunks are large.
	for _, dp := range app.Cargo().Delivered() {
		_ = dp
	}
}

func TestThreeAppsTogetherOnStack(t *testing.T) {
	d := newDevice(t)
	svc := defaultService(t, d, 2.0)
	src := randx.New(5)
	horizon := time.Hour
	mail := NewMailApp(d, src.Split(), 3*time.Minute, 5*time.Minute, horizon)
	weibo := NewWeiboApp(d, 90*time.Second, workload.SynthesizeUser(src.Split(), "u", workload.ClassActive))
	cloud := NewCloudApp(d, src.Split(), 5*time.Minute, 15*time.Minute, horizon)
	for _, tr := range heartbeat.DefaultTrio() {
		if _, err := StartTrain(d, tr, true); err != nil {
			t.Fatal(err)
		}
	}
	d.Run(horizon)
	if svc.BeatsObserved() == 0 {
		t.Fatal("no heartbeats observed")
	}
	delivered := len(mail.Cargo().Delivered()) + len(weibo.Cargo().Delivered()) + len(cloud.Cargo().Delivered())
	if delivered == 0 {
		t.Fatal("no cargo delivered")
	}
	if d.Energy(horizon).Total() <= 0 {
		t.Fatal("no energy accounted")
	}
}
