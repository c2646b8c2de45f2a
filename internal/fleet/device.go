package fleet

import (
	"fmt"
	"slices"
	"time"

	"etrain/internal/bandwidth"
	"etrain/internal/baseline"
	"etrain/internal/core"
	"etrain/internal/diurnal"
	"etrain/internal/heartbeat"
	"etrain/internal/profile"
	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/sim"
	"etrain/internal/simtime"
	"etrain/internal/workload"
)

// sessionDeadline is the deadline of session upload/download packets,
// matching the paper's controlled Weibo replay (§VI-D: 30 s).
const sessionDeadline = 30 * time.Second

// deviceNamespace salts device seeds so a fleet device at index i never
// shares a stream with any other consumer of the same base seed.
var deviceNamespace = randx.DeriveString("etrain/fleet/device")

// DeviceOutcome is one device's measured with/without-eTrain run pair.
type DeviceOutcome struct {
	// ClassIndex is the device's position in the activeness mix.
	ClassIndex int
	// WithoutJ and WithJ are the total energy in joules without eTrain
	// (transmit on arrival) and with it.
	WithoutJ float64
	WithJ    float64
	// DelayS and Violation are the with-eTrain mean packet delay in
	// seconds and deadline-violation ratio.
	DelayS    float64
	Violation float64
}

// Device is one synthesized fleet member: everything needed to run (or
// replay over the wire) the device's simulation, derived purely from
// (fleet seed, index). The heavyweight bandwidth trace is carried as
// BandwidthSeed rather than samples: bandwidth.FromSeed(BandwidthSeed,
// Horizon, nil) reproduces the exact trace, so a Device is cheap to hand
// to a remote session via a Hello frame.
type Device struct {
	// Index is the device's position in the fleet.
	Index int
	// Seed is the device's identity-derived stream seed.
	Seed int64
	// ClassIndex and Class are the activeness class drawn for the device.
	ClassIndex int
	Class      workload.ActivenessClass
	// Trains are the device's heartbeat apps.
	Trains []heartbeat.TrainApp
	// Packets is the merged session + background cargo in arrival order.
	Packets []workload.Packet
	// BandwidthSeed derives the device's channel via bandwidth.FromSeed.
	BandwidthSeed int64
	// Horizon is the device's simulated span.
	Horizon time.Duration
	// Beats, when non-nil, overrides the trains' generated schedule. Under
	// a diurnal profile synthesis sets it to the trains' schedule with the
	// profile's beat factors applied.
	Beats []heartbeat.Beat
}

// DeviceOptions parameterizes synthesis beyond the device's identity.
type DeviceOptions struct {
	// Diurnal, when non-nil, shapes the device's session and background
	// cargo by its class activity curve and applies the profile's
	// scheduled events to cargo rates and heartbeat cadence.
	Diurnal *diurnal.Profile
}

// SynthesizeDevice derives device index of the fleet seeded by fleetSeed.
// The draw order is fixed — class, trains, session, background, bandwidth
// seed — so the result is a pure function of (fleetSeed, pop, index,
// horizon) and is byte-compatible with what Run simulates.
func SynthesizeDevice(fleetSeed int64, pop *workload.Population, index int, horizon time.Duration) (Device, error) {
	return SynthesizeDeviceOpts(fleetSeed, pop, index, horizon, DeviceOptions{})
}

// SynthesizeDeviceOpts is SynthesizeDevice with options. Without a
// diurnal profile it is draw-for-draw identical to the legacy path; with
// one, the same streams feed the diurnal samplers (the per-device phase
// comes from randx.Derive and consumes no stream state), so attaching a
// profile never perturbs any other device. The device's slices are the
// caller's own.
func SynthesizeDeviceOpts(fleetSeed int64, pop *workload.Population, index int, horizon time.Duration, opts DeviceOptions) (Device, error) {
	s := &scratch{root: randx.Acquire(0), child: randx.Acquire(0), app: randx.Acquire(0)}
	defer s.root.Release()
	defer s.child.Release()
	defer s.app.Release()
	return s.synthesize(fleetSeed, pop, index, horizon, opts)
}

// SimConfig returns the device's base simulation config (no strategy set),
// rebuilding the channel trace from BandwidthSeed.
func (d Device) SimConfig() (sim.Config, error) {
	bw, err := bandwidth.FromSeed(d.BandwidthSeed, d.Horizon, nil)
	if err != nil {
		return sim.Config{}, err
	}
	return d.simConfig(bw), nil
}

// simConfig is SimConfig over the device's channel trace bw.
func (d Device) simConfig(bw *bandwidth.Trace) sim.Config {
	return sim.Config{
		Horizon:   d.Horizon,
		Trains:    d.Trains,
		Beats:     d.Beats,
		Packets:   d.Packets,
		Bandwidth: bw,
		Power:     radio.GalaxyS43G(),
		Seed:      d.Seed,
	}
}

// RunPair simulates base twice — transmit-on-arrival versus eTrain under
// Θ theta and batch bound k — over identical heartbeat trains, cargo and
// bandwidth; base's Strategy is ignored. It leaves ClassIndex zero: the
// class is the caller's to know.
func RunPair(base sim.Config, theta float64, k int) (DeviceOutcome, error) {
	strategy, err := core.New(core.Options{Theta: theta, K: k})
	if err != nil {
		return DeviceOutcome{}, err
	}
	return new(scratch).runPair(base, strategy)
}

// scratch is everything one device's synthesis and run pair fill, kept
// for the next device: each worker slot of a run owns one, so a device
// allocates nothing once the buffers have grown. A device synthesized
// into a scratch is valid until the scratch synthesizes the next one. The
// zero value can run a pair; synthesize also needs newScratch's streams,
// and runDevice its eTrain strategy Reset to the fleet's Θ and k. A
// scratch is not safe for concurrent use.
type scratch struct {
	trains  []heartbeat.TrainApp
	records []workload.BehaviorRecord
	// cargo holds the session packets, then the background packets, each
	// in arrival order; packets is the two merged.
	cargo   []workload.Packet
	packets []workload.Packet
	gen     workload.Generator
	merger  heartbeat.Merger
	beats   []heartbeat.Beat
	sampler diurnal.Sampler
	// root, child and app are the device's streams, reseeded in place:
	// root from the device seed, then the bandwidth seed; child split off
	// root for the session, then the background; app off child per app.
	root, child, app *randx.Source
	trace            bandwidth.Trace
	// engine runs both halves of every pair. The strategies keep nothing
	// between runs but their scratch, so they serve every device as they
	// are.
	engine    sim.Engine
	immediate baseline.Immediate
	etrain    *core.ETrain
}

// newScratch returns a scratch with its own streams and an eTrain
// strategy. Every device overwrites what it uses, so a scratch carries
// nothing from one device or fleet to the next but buffer capacity.
func newScratch() *scratch {
	return &scratch{root: randx.New(0), child: randx.New(0), app: randx.New(0), etrain: new(core.ETrain)}
}

// synthesize is SynthesizeDeviceOpts into s's buffers.
//
//etrain:hotpath
func (s *scratch) synthesize(fleetSeed int64, pop *workload.Population, index int, horizon time.Duration, opts DeviceOptions) (Device, error) {
	seed := randx.Derive(fleetSeed, deviceNamespace, uint64(index))
	// Each stream is drained before its Source is reseeded: the bits of
	// New and Split, without their per-device generator tables.
	src := s.root
	src.Reseed(seed)
	classIndex, class := pop.Pick(src.Float64())
	var sampler *diurnal.Sampler
	if opts.Diurnal != nil {
		sampler = &s.sampler
		opts.Diurnal.ForDeviceInto(sampler, class.String(), seed)
	}
	s.trains = appendTrains(s.trains[:0], src)
	// No consumer reads a session record's user ID, so it stays empty.
	s.records = workload.AppendSession(s.records[:0], src.SplitInto(s.child), "", class, horizon, sampler)
	s.cargo = workload.AppendPacketsFromTrace(s.cargo[:0], s.records, sessionProfile)
	var err error
	s.cargo, err = s.gen.Append(s.cargo, src.SplitInto(s.child), s.app, backgroundByClass[class], horizon, sampler)
	if err != nil {
		return Device{}, err
	}
	var beats []heartbeat.Beat
	if sampler != nil {
		s.beats = s.merger.Append(s.beats[:0], s.trains, horizon, sampler.ScaleBeat)
		beats = s.beats
	}
	s.packets = mergePackets(s.packets[:0], s.cargo)
	return Device{
		Index:         index,
		Seed:          seed,
		ClassIndex:    classIndex,
		Class:         class,
		Trains:        s.trains,
		Packets:       s.packets,
		BandwidthSeed: src.Int63(), // what Split would seed the bandwidth stream with
		Horizon:       horizon,
		Beats:         beats,
	}, nil
}

// runDevice synthesizes device i into s and measures its run pair.
// Everything is derived from (cfg.Seed, i) in a fixed draw order, so the
// outcome is a pure function of the device's identity.
//
//etrain:hotpath
func (s *scratch) runDevice(cfg *Config, pop *workload.Population, i int) (DeviceOutcome, error) {
	dev, err := s.synthesize(cfg.Seed, pop, i, cfg.Horizon, DeviceOptions{Diurnal: cfg.Diurnal})
	if err != nil {
		return DeviceOutcome{}, err
	}
	// bandwidth.FromSeedInto on the scratch's root stream.
	s.root.Reseed(dev.BandwidthSeed)
	if err := bandwidth.SynthesizeInto(&s.trace, s.root, dev.Horizon, nil); err != nil {
		return DeviceOutcome{}, err
	}
	base := dev.simConfig(&s.trace)
	base.Radio = cfg.radioModel
	out, err := s.runPair(base, s.etrain)
	if err != nil {
		return DeviceOutcome{}, err
	}
	out.ClassIndex = dev.ClassIndex
	return out, nil
}

// runPair is RunPair on s's engine and beat buffer, with etrain as the
// eTrain strategy.
//
//etrain:hotpath
func (s *scratch) runPair(base sim.Config, etrain *core.ETrain) (DeviceOutcome, error) {
	if base.Beats == nil {
		// Both runs would merge the same schedule; merge it once. RunMetrics
		// never appends a beat, so the two runs can share the slice.
		s.beats = s.merger.Append(s.beats[:0], base.Trains, base.Horizon, nil)
		base.Beats = s.beats
	}
	without := base
	without.Strategy = &s.immediate
	mWithout, err := s.engine.RunMetrics(without)
	if err != nil {
		return DeviceOutcome{}, fmt.Errorf("without eTrain: %w", err)
	}
	with := base
	with.Strategy = etrain
	mWith, err := s.engine.RunMetrics(with)
	if err != nil {
		return DeviceOutcome{}, fmt.Errorf("with eTrain: %w", err)
	}
	return DeviceOutcome{
		WithoutJ:  mWithout.EnergyJ,
		WithJ:     mWith.EnergyJ,
		DelayS:    mWith.AvgDelayS,
		Violation: mWith.ViolationRatio,
	}, nil
}

// trio is the paper's train trio every device draws its trains from.
var trio = heartbeat.DefaultTrio()

// appendTrains appends the device's heartbeat apps to dst: a contiguous
// cyclic subset of the paper's trio, 1–3 apps, so fleets exercise every
// train count of Fig. 10a.
func appendTrains(dst []heartbeat.TrainApp, src *randx.Source) []heartbeat.TrainApp {
	n := 1 + src.Intn(len(trio))
	start := src.Intn(len(trio))
	for i := 0; i < n; i++ {
		dst = append(dst, trio[(start+i)%len(trio)])
	}
	return dst
}

// sessionProfile is the delay-cost profile of every session packet.
// Profiles are read-only, so all devices share one.
var sessionProfile = profile.Weibo(sessionDeadline)

// backgroundByClass holds each activeness class's backgroundSpecs, built
// once: specs and their profiles are read-only, so a class's devices share
// them.
var backgroundByClass = func() (m [workload.ClassActive + 1][]workload.CargoSpec) {
	for _, c := range []workload.ActivenessClass{workload.ClassInactive, workload.ClassModerate, workload.ClassActive} {
		m[c] = backgroundSpecs(c)
	}
	return m
}()

// backgroundSpecs returns the device's delay-tolerant background cargo
// (mail + cloud sync), with arrival rates scaled by the activeness class:
// active users generate more background traffic, inactive users less.
func backgroundSpecs(class workload.ActivenessClass) []workload.CargoSpec {
	factor := activityFactor(class)
	specs := []workload.CargoSpec{workload.MailSpec(), workload.CloudSpec()}
	for i := range specs {
		specs[i].MeanInterArrival = time.Duration(float64(specs[i].MeanInterArrival) / factor)
	}
	return specs
}

// activityFactor is the background-rate multiplier per activeness class.
func activityFactor(class workload.ActivenessClass) float64 {
	switch class {
	case workload.ClassActive:
		return 1.5
	case workload.ClassModerate:
		return 1.0
	default:
		return 0.5
	}
}

// mergePackets appends to dst the session replay and the background cargo,
// laid end to end in cargo, interleaved by arrival time (the session's
// first at one instant), and numbers them in that order from 0, as the sim
// queues require.
//
//etrain:hotpath
func mergePackets(dst, cargo []workload.Packet) []workload.Packet {
	dst = slices.Grow(dst, len(cargo))
	first := len(dst)
	simtime.MergeRuns(cargo, packetAt, func(p *workload.Packet) {
		q := *p
		q.ID = len(dst) - first
		dst = append(dst, q)
	})
	return dst
}

func packetAt(p *workload.Packet) time.Duration { return p.ArrivedAt }
