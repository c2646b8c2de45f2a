package sim_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/baseline"
	"etrain/internal/core"
	"etrain/internal/fleet"
	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/sched"
	"etrain/internal/sim"
	"etrain/internal/workload"
)

// stepping hides a strategy's sched.Waker, so the engine executes every
// slot: the reference the skipping engine must reproduce.
type stepping struct{ sched.Strategy }

// skipCase is one device's strategy setup in the differential test.
type skipCase struct {
	name     string
	slot     time.Duration
	strategy func() sched.Strategy
	gated    bool
}

// skipCaseFor spreads the strategy space over the device index: four slot
// lengths, Θ from 0 to 20, k ∈ {1, 3, 20, ∞}, all three selection
// policies, the channel-gated variant and the transmit-on-arrival
// baseline.
func skipCaseFor(i int) skipCase {
	if i%6 == 5 {
		return skipCase{name: "immediate", slot: time.Second, strategy: func() sched.Strategy { return baseline.NewImmediate() }}
	}
	slots := []time.Duration{700 * time.Millisecond, time.Second, 1500 * time.Millisecond, 3 * time.Second}
	thetas := []float64{0, 0.25, 1, 2, 3.5, 4, 7, 12, 20}
	ks := []int{1, 3, 20, core.KInfinite}
	policies := []core.SelectionPolicy{core.SelectEq9, core.SelectFIFO, core.SelectCheapest}
	opts := core.Options{
		Slot:         slots[i%len(slots)],
		Theta:        thetas[i%len(thetas)],
		K:            ks[(i/2)%len(ks)],
		Selection:    policies[(i/3)%len(policies)],
		ChannelGated: i%7 == 3,
	}
	return skipCase{
		name:  fmt.Sprintf("%+v", opts),
		slot:  opts.Slot,
		gated: opts.ChannelGated,
		strategy: func() sched.Strategy {
			s, err := core.New(opts)
			if err != nil {
				panic(err)
			}
			return s
		},
	}
}

// snapToSlots moves every third event onto a slot boundary and every third
// to 1 ns before one, then restores time order: the instants where an
// off-by-one slot in a wake computation would show.
func snapToSlots[T any](events []T, slot time.Duration, at func(*T) *time.Duration) {
	for j := range events {
		t := at(&events[j])
		boundary := *t / slot * slot
		switch j % 3 {
		case 0:
			*t = boundary
		case 1:
			if boundary > 0 {
				*t = boundary - 1
			}
		}
	}
	slices.SortStableFunc(events, func(a, b T) int { return cmp.Compare(*at(&a), *at(&b)) })
}

// skipConfig synthesizes fleet device i with a horizon that is not a
// multiple of any slot, snaps some of its beats and packets to slot
// edges, and returns its config without a strategy.
func skipConfig(t *testing.T, pop *workload.Population, i int, c skipCase) sim.Config {
	t.Helper()
	horizon := 3*time.Minute + time.Duration(i*7919)%(4*time.Minute) + 123457*time.Nanosecond
	dev, err := fleet.SynthesizeDevice(20261017, pop, i, horizon)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := dev.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Packets = slices.Clone(cfg.Packets)
	snapToSlots(cfg.Packets, c.slot, func(p *workload.Packet) *time.Duration { return &p.ArrivedAt })
	cfg.Beats = heartbeat.Merge(cfg.Trains, horizon, nil)
	snapToSlots(cfg.Beats, c.slot, func(b *heartbeat.Beat) *time.Duration { return &b.At })
	return cfg
}

// withStrategy completes cfg with a fresh strategy and, for the gated
// variant, a fresh estimator, so the two runs draw the same noise.
func withStrategy(cfg sim.Config, c skipCase, step bool, seed int64) sim.Config {
	cfg.Strategy = c.strategy()
	if step {
		cfg.Strategy = stepping{cfg.Strategy}
	}
	if c.gated {
		cfg.Estimator = bandwidth.NewEstimator(cfg.Bandwidth, randx.New(seed), 2*time.Second, 0.3)
	}
	return cfg
}

// incremental drives cfg's events into e one at a time after a Reset,
// advancing to each event's instant as a server session does, and returns
// the run's Metrics with the stream of slots that transmitted anything.
func incremental(t *testing.T, e *sim.Engine, cfg sim.Config) (sim.Metrics, []sim.SlotResult) {
	t.Helper()
	beats, packets := cfg.Beats, cfg.Packets
	cfg.Beats, cfg.Packets = []heartbeat.Beat{}, nil
	if err := e.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	var slots []sim.SlotResult
	e.OnSlot = func(r sim.SlotResult) {
		if len(r.Data) > 0 || r.Heartbeats > 0 {
			r.Data = slices.Clone(r.Data)
			slots = append(slots, r)
		}
	}
	for len(beats) > 0 || len(packets) > 0 {
		var at time.Duration
		var err error
		if len(beats) > 0 && (len(packets) == 0 || beats[0].At <= packets[0].ArrivedAt) {
			at = beats[0].At
			err = e.AddBeat(beats[0])
			beats = beats[1:]
		} else {
			at = packets[0].ArrivedAt
			err = e.AddPacket(packets[0])
			packets = packets[1:]
		}
		if err == nil {
			err = e.Advance(at)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	return e.Metrics(), slots
}

// matchesSlots fails unless the slot stream of an incremental run with
// Metrics m reports exactly res: its data packets, in transmission order,
// its heartbeat count and its Metrics.
func matchesSlots(t *testing.T, label string, m sim.Metrics, slots []sim.SlotResult, res *sim.Result) {
	t.Helper()
	var data []sim.PacketStat
	beats := 0
	for _, s := range slots {
		data = append(data, s.Data...)
		beats += s.Heartbeats
	}
	if !slices.Equal(data, res.Packets) || beats != res.HeartbeatCount {
		t.Fatalf("%s: slot stream reports %d packets and %d beats, Run %d and %d", label, len(data), beats, len(res.Packets), res.HeartbeatCount)
	}
	if want := res.Metrics(); m != want {
		t.Fatalf("%s: incremental Metrics differ from Run's:\n got %+v\nwant %+v", label, m, want)
	}
}

// matchesStepping runs cfg with c's strategy four ways, skipping and
// stepping, in one Run and fed event by event, and fails unless all four
// runs and both slot streams agree. It returns the skipping Run.
func matchesStepping(t *testing.T, label string, cfg sim.Config, c skipCase, seed int64) *sim.Result {
	t.Helper()
	want, err := sim.Run(withStrategy(cfg, c, true, seed))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(withStrategy(cfg, c, false, seed))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s (%s): skipping Run differs from stepping:\n got %+v\nwant %+v", label, c.name, got.Metrics(), want.Metrics())
	}

	wantInc, wantSlots := incremental(t, new(sim.Engine), withStrategy(cfg, c, true, seed))
	gotInc, gotSlots := incremental(t, new(sim.Engine), withStrategy(cfg, c, false, seed))
	if !reflect.DeepEqual(gotSlots, wantSlots) {
		t.Fatalf("%s (%s): skipping engine's slot stream differs from stepping (%d vs %d slots)", label, c.name, len(gotSlots), len(wantSlots))
	}
	matchesSlots(t, label+" stepping", wantInc, wantSlots, want)
	matchesSlots(t, label+" skipping", gotInc, gotSlots, want)
	return got
}

// TestSkippingMatchesStepping is the stepping ≡ skipping differential
// test: over 420 synthesized fleet devices, an engine that jumps over idle
// slots must produce exactly the result of one that executes every slot,
// both in one Run and fed one event at a time, slot stream included. Two
// crafted devices follow (arrivalSlots).
func TestSkippingMatchesStepping(t *testing.T) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	const devices = 420
	for i := 0; i < devices; i++ {
		c := skipCaseFor(i)
		matchesStepping(t, fmt.Sprintf("device %d", i), skipConfig(t, pop, i, c), c, int64(i))
	}
	t.Run("arrival slots", arrivalSlots)
}

// arrivalSlots pins the two arrival-slot paths of the wake search against
// stepping, in one Run and fed event by event: a run of arrivals in
// consecutive slots while the Θ gate stays shut, whose slots the skipping
// engine never steps, and an arrival that opens the gate at the very slot
// where it becomes visible.
func arrivalSlots(t *testing.T) {
	const slot = time.Second
	bw, err := bandwidth.Constant(50e3, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	weibo := profile.Weibo(time.Minute)
	cfg := sim.Config{
		Horizon:   4 * time.Minute,
		Beats:     []heartbeat.Beat{{At: 150 * time.Second, App: "qq", Size: 378}},
		Bandwidth: bw,
		Power:     radio.GalaxyS43G(),
	}
	// One arrival in each of 30 consecutive slots, alternating between
	// mid-slot, on the slot start and 1 ns before it.
	for i := 0; i < 30; i++ {
		at := time.Duration(i)*slot + []time.Duration{slot / 2, 0, slot - 1}[i%3]
		cfg.Packets = append(cfg.Packets, workload.Packet{ID: i, App: "weibo", ArrivedAt: at, Size: 2000, Profile: weibo})
	}
	etrain := func(theta float64) skipCase {
		opts := core.Options{Theta: theta, K: 20}
		return skipCase{name: fmt.Sprintf("Θ %v", theta), slot: slot, strategy: func() sched.Strategy {
			s, err := core.New(opts)
			if err != nil {
				panic(err)
			}
			return s
		}}
	}

	// Θ 8: while the arrivals last, P(t) ≤ Σ_i (30 s − i·1 s)/60 s < 8,
	// so the gate is shut at every arrival slot.
	shut := matchesStepping(t, "arrivals while shut", cfg, etrain(8), 1)
	for _, p := range shut.Packets {
		if p.StartedAt < 30*time.Second {
			t.Fatalf("packet %d started at %v, while the gate should be shut", p.ID, p.StartedAt)
		}
	}

	// Five weibo packets alone keep P(t) below 8 until about 98 s. A cloud
	// packet with a 100 ms deadline that arrives at 40.3 s costs
	// 3·7 − 2 = 19 when it becomes visible at 41 s: the gate opens at its
	// own slot.
	cfg.Packets = append(slices.Clone(cfg.Packets[:5]), workload.Packet{
		ID: 30, App: "cloud", ArrivedAt: 40*time.Second + 300*time.Millisecond, Size: 50000, Profile: profile.Cloud(100 * time.Millisecond),
	})
	opens := matchesStepping(t, "arrival opens the gate", cfg, etrain(8), 1)
	if len(opens.Packets) == 0 || opens.Packets[0].ID != 30 || opens.Packets[0].StartedAt != 41*time.Second {
		t.Fatalf("first transmission %+v, want the cloud packet at its visible slot 41s", opens.Packets[:min(1, len(opens.Packets))])
	}
}
