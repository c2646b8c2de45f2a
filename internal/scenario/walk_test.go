package scenario

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/heartbeat"
	"etrain/internal/randx"
	"etrain/internal/server"
	"etrain/internal/wire"
)

// Heartbeat cadence has one walk, heartbeat.TrainApp.Schedule, modulated
// by its scale argument. The two loops below are the walks it replaced,
// kept as references it must reproduce bit for bit: the diurnal sampler's
// own Schedule (fleet devices under a profile) and the scenario plan's
// per-train schedule.

// samplerWalk is the walk diurnal.Sampler.Schedule made: every interval
// divided by the beat factor active when it starts.
func samplerWalk(s *diurnal.Sampler, a heartbeat.TrainApp, horizon time.Duration) []heartbeat.Beat {
	var beats []heartbeat.Beat
	at := a.FirstAt
	for i := 0; at < horizon; i++ {
		beats = append(beats, heartbeat.Beat{At: at, App: a.Name, Size: a.PacketSize})
		step := a.Policy.IntervalAfter(i)
		if step <= 0 {
			break
		}
		at += s.ScaleBeat(at, step)
	}
	return beats
}

// samplerMerge is diurnal.Sampler.Merge over samplerWalk.
func samplerMerge(s *diurnal.Sampler, apps []heartbeat.TrainApp, horizon time.Duration) []heartbeat.Beat {
	var all []heartbeat.Beat
	for _, a := range apps {
		all = append(all, samplerWalk(s, a, horizon)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	return all
}

// planWalk is the walk the scenario plan made for one train: the diurnal
// beat factor, then the composed cycle factors, stopping at the train's
// uninstall instant.
func planWalk(p *devicePlan, spec trainSpec) []heartbeat.Beat {
	var beats []heartbeat.Beat
	at := spec.app.FirstAt
	for i := 0; at < p.horizon; i++ {
		if spec.uninstalledAt >= 0 && at >= spec.uninstalledAt {
			break
		}
		beats = append(beats, heartbeat.Beat{At: at, App: spec.app.Name, Size: spec.app.PacketSize})
		step := spec.app.Policy.IntervalAfter(i)
		if step <= 0 {
			break
		}
		if p.sampler != nil {
			step = p.sampler.ScaleBeat(at, step)
		}
		for _, ch := range p.cycles {
			if at >= ch.at {
				step = time.Duration(float64(step) * ch.factor)
			}
		}
		if step <= 0 {
			break
		}
		at += step
	}
	return beats
}

// planBeats is the beat schedule the plan built from planWalk.
func planBeats(p *devicePlan) []heartbeat.Beat {
	var beats []heartbeat.Beat
	for _, spec := range p.trains {
		beats = append(beats, planWalk(p, spec)...)
	}
	if len(p.reboots) > 0 {
		beats = dropInWindows(beats, p.reboots)
	}
	sort.SliceStable(beats, func(i, j int) bool { return beats[i].At < beats[j].At })
	return beats
}

// stopAfter is a broken policy: n intervals of step, then zero, which
// must end the walk mid-horizon.
type stopAfter struct {
	n    int
	step time.Duration
}

func (p stopAfter) IntervalAfter(i int) time.Duration {
	if i < p.n {
		return p.step
	}
	return 0
}

// randomApp draws a train app under a fixed, adaptive, zero-interval or
// stopping policy, first beating anywhere in [0, horizon).
func randomApp(src *randx.Source, name string, horizon time.Duration) heartbeat.TrainApp {
	var policy heartbeat.CyclePolicy
	switch src.Intn(4) {
	case 0:
		policy = heartbeat.FixedCycle(time.Duration(10+src.Intn(600)) * time.Second)
	case 1:
		policy = heartbeat.AdaptiveCycle{
			Initial:      time.Duration(10+src.Intn(120)) * time.Second,
			Factor:       1 + src.Intn(3),
			BeatsPerStep: 1 + src.Intn(8),
			Max:          time.Duration(src.Intn(900)) * time.Second,
		}
	case 2:
		policy = heartbeat.FixedCycle(0)
	default:
		policy = stopAfter{n: src.Intn(20), step: time.Duration(10+src.Intn(300)) * time.Second}
	}
	return heartbeat.TrainApp{
		Name:       name,
		PacketSize: int64(1 + src.Intn(400)),
		Policy:     policy,
		FirstAt:    time.Duration(src.Int63() % int64(horizon)),
	}
}

// randomStorms binds a week profile carrying up to three beat storms
// inside the horizon to one device. A storm's factor may slow beats,
// speed them up, or be large enough to hit ScaleBeat's 1 ms clamp (kept
// to a second so the walk stays short).
func randomStorms(src *randx.Source, horizon time.Duration) *diurnal.Sampler {
	p := diurnal.Week()
	p.TimeScale = float64(1 + src.Intn(20))
	span := int64(float64(horizon) * p.TimeScale)
	for n := src.Intn(4); n > 0; n-- {
		e := diurnal.Event{
			Name:     "storm",
			At:       time.Duration(src.Int63() % span),
			Duration: time.Duration(1+src.Intn(60)) * time.Minute,
		}
		switch src.Intn(4) {
		case 0:
			e.BeatFactor = 0.5
		case 1:
			e.BeatFactor = 2
		case 2:
			e.BeatFactor = 3
		default:
			e.BeatFactor = 1e12
			e.Duration = time.Second
		}
		if src.Intn(3) == 0 {
			e.Every = e.Duration + time.Duration(1+src.Intn(120))*time.Minute
		}
		p.Events = append(p.Events, e)
	}
	return p.ForDevice("moderate", src.Int63())
}

// randomPlan draws a device plan: random trains, storms half the time,
// and a timeline of stacked heartbeat_schedule factors (one small enough
// to drive a step to zero), installs and uninstalls and reboots, applied
// in time order through devicePlan.apply. Every other plan installs,
// uninstalls and reinstalls one app under the same name.
func randomPlan(src *randx.Source) *devicePlan {
	horizon := time.Duration(30+src.Intn(150)) * time.Minute
	p := &devicePlan{horizon: horizon}
	if src.Intn(2) == 0 {
		p.sampler = randomStorms(src, horizon)
	}
	names := []string{"qq", "wechat", "x"}
	for n := 1 + src.Intn(3); n > 0; n-- {
		p.trains = append(p.trains, trainSpec{app: randomApp(src, names[src.Intn(len(names))], horizon), uninstalledAt: -1})
	}
	at := func() Duration { return Duration(src.Int63() % int64(horizon)) }
	var events []Event
	for n := src.Intn(6); n > 0; n-- {
		switch src.Intn(4) {
		case 0:
			factors := []float64{0.5, 2, 3, 0.1, 1e-12}
			events = append(events, Event{At: at(), Action: ActionHeartbeatSchedule, Factor: factors[src.Intn(len(factors))]})
		case 1:
			events = append(events, Event{At: at(), Action: ActionAppInstall, App: "wechat"})
		case 2:
			events = append(events, Event{At: at(), Action: ActionAppUninstall, App: names[src.Intn(len(names))]})
		default:
			events = append(events, Event{At: at(), Action: ActionReboot, Duration: Duration(time.Duration(1+src.Intn(20)) * time.Minute)})
		}
	}
	if src.Intn(2) == 0 {
		t := []Duration{at(), at(), at()}
		sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
		events = append(events,
			Event{At: t[0], Action: ActionAppInstall, App: "qq"},
			Event{At: t[1], Action: ActionAppUninstall, App: "qq"},
			Event{At: t[2], Action: ActionAppInstall, App: "qq"})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for i, ev := range events {
		p.apply(compiledEvent{Event: ev, index: i})
	}
	return p
}

// TestBeatWalkMatchesReferences holds the one heartbeat walk to both
// walks it replaced over random plans: the plan's beats, and the fleet's
// diurnal schedule of the same trains under the plan's sampler.
func TestBeatWalkMatchesReferences(t *testing.T) {
	src := randx.New(20)
	reinstalls := 0
	for n := 0; n < 400; n++ {
		p := randomPlan(src)
		if got, want := p.beats(), planBeats(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("plan %d: shared walk gave %d beats, reference %d", n, len(got), len(want))
		}
		if p.sampler != nil {
			apps := make([]heartbeat.TrainApp, len(p.trains))
			for i, spec := range p.trains {
				apps[i] = spec.app
			}
			got := heartbeat.Merge(apps, p.horizon, p.sampler.ScaleBeat)
			if want := samplerMerge(p.sampler, apps, p.horizon); !reflect.DeepEqual(got, want) {
				t.Fatalf("plan %d: shared walk gave %d sampler beats, reference %d", n, len(got), len(want))
			}
		}
		if reinstalled(p) {
			reinstalls++
		}
	}
	if reinstalls == 0 {
		t.Fatal("no plan reinstalled an app")
	}
}

// reinstalled reports whether the plan holds an app that was uninstalled
// and later installed again under the same name.
func reinstalled(p *devicePlan) bool {
	for i, gone := range p.trains {
		if gone.uninstalledAt < 0 {
			continue
		}
		for _, back := range p.trains[i+1:] {
			if back.app.Name == gone.app.Name && back.app.FirstAt >= gone.uninstalledAt {
				return true
			}
		}
	}
	return false
}

// TestSilencedDeviceReplaysNoBeats pins that a planned device whose
// timeline uninstalled every app replays no heartbeat on the wire: its
// session must not fall back to the synthesized trains' schedule.
func TestSilencedDeviceReplaysNoBeats(t *testing.T) {
	s := &Scenario{
		Name:    "silenced",
		Seed:    5,
		Horizon: Duration(30 * time.Minute),
		Engine:  EngineLoopback,
		Fleet:   Fleet{Devices: 1},
	}
	for _, app := range []string{"qq", "wechat", "whatsapp"} {
		s.Timeline = append(s.Timeline, Event{Action: ActionAppUninstall, App: app})
	}
	c, err := s.compile()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planDevice(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.dev.Trains) == 0 {
		t.Fatal("device synthesized no trains")
	}
	pd, err := plan.build()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := server.SessionFromDevice(pd.dev, c.theta, c.k)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sess.Events {
		if b, ok := ev.(wire.HeartbeatObserved); ok {
			t.Fatalf("silenced device replays a beat: %+v", b)
		}
	}
}
