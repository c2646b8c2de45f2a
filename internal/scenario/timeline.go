package scenario

import (
	"fmt"
	"sort"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/diurnal"
	"etrain/internal/fleet"
	"etrain/internal/heartbeat"
	"etrain/internal/randx"
	"etrain/internal/workload"
)

// bwEventNamespace salts the seed of resynthesized bandwidth tails so
// they never alias the device's base channel stream.
var bwEventNamespace = randx.DeriveString("etrain/scenario/bandwidth")

// trainByName resolves a heartbeat app factory for app_install /
// app_uninstall events.
func trainByName(name string) (heartbeat.TrainApp, error) {
	switch name {
	case "qq":
		return heartbeat.QQ(), nil
	case "wechat":
		return heartbeat.WeChat(), nil
	case "whatsapp":
		return heartbeat.WhatsApp(), nil
	case "renren":
		return heartbeat.RenRen(), nil
	case "netease":
		return heartbeat.NetEase(), nil
	case "apns":
		return heartbeat.APNS(), nil
	default:
		return heartbeat.TrainApp{}, fmt.Errorf("unknown heartbeat app %q (want qq, wechat, whatsapp, renren, netease or apns)", name)
	}
}

// regimeByName resolves a named mobility regime for bandwidth_regime
// events.
func regimeByName(name string) (bandwidth.Regime, error) {
	for _, r := range bandwidth.DefaultRegimes() {
		if r.Name == name {
			return r, nil
		}
	}
	return bandwidth.Regime{}, fmt.Errorf("unknown bandwidth regime %q (want bus, walk or indoor)", name)
}

// trainSpec is one heartbeat app on a device's plan, with its scenario
// lifecycle.
type trainSpec struct {
	app heartbeat.TrainApp
	// uninstalledAt silences the app from that instant; < 0 means never.
	uninstalledAt time.Duration
}

// cycleChange scales every heartbeat interval that starts at or after
// its instant. Changes compose multiplicatively.
type cycleChange struct {
	at     time.Duration
	factor float64
}

// window is a half-open outage interval [from, to).
type window struct{ from, to time.Duration }

// bwChange is one channel transform, applied to the remaining samples
// in timeline order.
type bwChange struct {
	at     time.Duration
	factor float64          // scale, when regime is zero
	regime bandwidth.Regime // resynthesized tail, when Name != ""
	index  int              // timeline position, salts the tail seed
}

// devicePlan accumulates a device's timeline transforms; build turns
// it into the concrete beats, cargo and channel trace the run uses.
type devicePlan struct {
	dev     fleet.Device
	horizon time.Duration

	trains  []trainSpec
	cycles  []cycleChange
	reboots []window
	bw      []bwChange
	// sampler is the device's diurnal sampler; nil without a profile.
	sampler *diurnal.Sampler
}

// planDevice synthesizes device i and applies the matching timeline
// events to its plan. A matching diurnal_profile (last declared wins)
// shapes the synthesis itself, with matching scheduled_event entries
// layered onto it.
func planDevice(c *compiled, i int) (*devicePlan, error) {
	var prof *diurnal.Profile
	var schedEvents []diurnal.Event
	for _, ev := range c.events {
		if !ev.match(i) {
			continue
		}
		switch ev.Action {
		case ActionDiurnalProfile:
			prof = ev.prof
		case ActionScheduledEvent:
			schedEvents = append(schedEvents, ev.dEvent)
		}
	}
	if prof == nil && len(schedEvents) > 0 {
		return nil, fmt.Errorf("scheduled_event matches device %d, which has no diurnal_profile", i)
	}
	if prof != nil && len(schedEvents) > 0 {
		prof = prof.WithEvents(schedEvents...)
	}
	dev, err := fleet.SynthesizeDeviceOpts(c.sc.Seed, c.pop, i, c.sc.Horizon.D(), fleet.DeviceOptions{Diurnal: prof})
	if err != nil {
		return nil, err
	}
	p := &devicePlan{dev: dev, horizon: dev.Horizon}
	if prof != nil {
		p.sampler = prof.ForDevice(dev.Class.String(), dev.Seed)
	}
	for _, t := range dev.Trains {
		p.trains = append(p.trains, trainSpec{app: t, uninstalledAt: -1})
	}
	for _, ev := range c.events {
		if !ev.match(i) {
			continue
		}
		p.apply(ev)
	}
	return p, nil
}

// apply records one event on the plan. Transport-level actions
// (fault_burst, server_restart, overload_burst) are handled by the
// loopback rig, not here.
func (p *devicePlan) apply(ev compiledEvent) {
	at := ev.At.D()
	switch ev.Action {
	case ActionHeartbeatSchedule:
		p.cycles = append(p.cycles, cycleChange{at: at, factor: ev.Factor})
	case ActionAppInstall:
		app, err := trainByName(ev.App)
		if err != nil {
			return // unreachable: compile validated the name
		}
		app.FirstAt = at
		p.trains = append(p.trains, trainSpec{app: app, uninstalledAt: -1})
	case ActionAppUninstall:
		for i := range p.trains {
			if p.trains[i].app.Name == ev.App && p.trains[i].uninstalledAt < 0 {
				p.trains[i].uninstalledAt = at
			}
		}
	case ActionReboot:
		p.reboots = append(p.reboots, window{from: at, to: at + ev.Duration.D()})
	case ActionBandwidthRegime:
		ch := bwChange{at: at, factor: ev.Factor, index: ev.index}
		if ev.Regime != "" {
			ch.regime, _ = regimeByName(ev.Regime)
		}
		p.bw = append(p.bw, ch)
	}
}

// plannedDevice is the concrete, post-timeline device: what the
// baseline and eTrain runs both consume.
type plannedDevice struct {
	// dev carries the post-timeline beats and cargo and no trains, so a
	// device whose timeline silenced every beat replays none on the wire
	// instead of falling back to its trains' schedule.
	dev   fleet.Device
	trace *bandwidth.Trace
}

// build materializes the plan.
func (p *devicePlan) build() (*plannedDevice, error) {
	out := &plannedDevice{dev: p.dev}
	out.dev.Trains = nil
	out.dev.Beats = p.beats()

	packets := append([]workload.Packet(nil), p.dev.Packets...)
	for _, w := range p.reboots {
		for i := range packets {
			if packets[i].ArrivedAt >= w.from && packets[i].ArrivedAt < w.to {
				packets[i].ArrivedAt = w.to
			}
		}
	}
	if len(p.reboots) > 0 {
		sort.SliceStable(packets, func(i, j int) bool { return packets[i].ArrivedAt < packets[j].ArrivedAt })
		for i := range packets {
			packets[i].ID = i
		}
		// A reboot at the horizon's edge can push arrivals past it; the
		// engine would reject them, so they are lost with the outage.
		for len(packets) > 0 && packets[len(packets)-1].ArrivedAt >= p.horizon {
			packets = packets[:len(packets)-1]
		}
	}
	out.dev.Packets = packets

	trace, err := bandwidth.FromSeed(p.dev.BandwidthSeed, p.horizon, nil)
	if err != nil {
		return nil, err
	}
	if len(p.bw) > 0 {
		if trace, err = p.transformTrace(trace); err != nil {
			return nil, err
		}
	}
	out.trace = trace
	return out, nil
}

// beats walks every train through heartbeat's schedule walk, each up to
// its own uninstall instant, with scale applied to every interval; then
// it drops the beats lost to reboots and sorts the rest.
func (p *devicePlan) beats() []heartbeat.Beat {
	var beats []heartbeat.Beat
	for _, spec := range p.trains {
		until := p.horizon
		if spec.uninstalledAt >= 0 && spec.uninstalledAt < until {
			until = spec.uninstalledAt
		}
		beats = append(beats, spec.app.Schedule(until, p.scale)...)
	}
	if len(p.reboots) > 0 {
		beats = dropInWindows(beats, p.reboots)
	}
	sort.SliceStable(beats, func(i, j int) bool { return beats[i].At < beats[j].At })
	return beats
}

// scale modulates a heartbeat interval starting at at: the diurnal beat
// factor first, then every cycle change whose instant is at or before at.
func (p *devicePlan) scale(at, step time.Duration) time.Duration {
	if p.sampler != nil {
		step = p.sampler.ScaleBeat(at, step)
	}
	for _, ch := range p.cycles {
		if at >= ch.at {
			step = time.Duration(float64(step) * ch.factor)
		}
	}
	return step
}

// dropInWindows removes beats inside any outage window.
func dropInWindows(beats []heartbeat.Beat, windows []window) []heartbeat.Beat {
	kept := beats[:0]
	for _, b := range beats {
		lost := false
		for _, w := range windows {
			if b.At >= w.from && b.At < w.to {
				lost = true
				break
			}
		}
		if !lost {
			kept = append(kept, b)
		}
	}
	return kept
}

// transformTrace applies the bandwidth changes in timeline order: each
// change rewrites the samples from its instant on, either scaled by
// factor or resynthesized under the named regime from a seed derived
// from (device seed, event index).
func (p *devicePlan) transformTrace(trace *bandwidth.Trace) (*bandwidth.Trace, error) {
	samples := trace.Samples()
	for _, ch := range p.bw {
		from := int(ch.at / time.Second)
		if from >= len(samples) {
			continue
		}
		if ch.regime.Name == "" {
			for i := from; i < len(samples); i++ {
				samples[i] *= ch.factor
				if samples[i] < 1e3 {
					samples[i] = 1e3 // match the synthesizer's deep-fade floor
				}
			}
			continue
		}
		tailLen := time.Duration(len(samples)-from) * time.Second
		seed := randx.Derive(p.dev.Seed, bwEventNamespace, uint64(ch.index))
		// The synthesizer needs ≥ 2 regimes to draw a switch target;
		// duplicating the single regime pins the process to it.
		tail, err := bandwidth.Synthesize(randx.New(seed), tailLen, []bandwidth.Regime{ch.regime, ch.regime})
		if err != nil {
			return nil, err
		}
		copy(samples[from:], tail.Samples())
	}
	return bandwidth.NewTrace(samples)
}
