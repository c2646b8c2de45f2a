package fleet

import (
	"cmp"
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
// profile never perturbs any other device.
func SynthesizeDeviceOpts(fleetSeed int64, pop *workload.Population, index int, horizon time.Duration, opts DeviceOptions) (Device, error) {
	seed := randx.Derive(fleetSeed, deviceNamespace, uint64(index))
	// Synthesis streams are short-lived and fully consumed here, so they
	// come from the source pool: same bits as New/Split, no per-device
	// generator-table allocations in the shard loop.
	src := randx.Acquire(seed)
	defer src.Release()
	classIndex, class := pop.Pick(src.Float64())
	var sampler *diurnal.Sampler
	if opts.Diurnal != nil {
		sampler = opts.Diurnal.ForDevice(class.String(), seed)
	}
	trains := deviceTrains(src)
	sessSrc := src.SplitPooled()
	trace := workload.SynthesizeSession(sessSrc, fmt.Sprintf("device-%d", index), class, horizon, sampler)
	sessSrc.Release()
	session := workload.PacketsFromTrace(trace, profile.Weibo(sessionDeadline))
	genSrc := src.SplitPooled()
	background, err := workload.Generate(genSrc, backgroundSpecs(class), horizon, sampler)
	genSrc.Release()
	if err != nil {
		return Device{}, err
	}
	var beats []heartbeat.Beat
	if sampler != nil {
		beats = heartbeat.Merge(trains, horizon, sampler.ScaleBeat)
	}
	return Device{
		Index:         index,
		Seed:          seed,
		ClassIndex:    classIndex,
		Class:         class,
		Trains:        trains,
		Packets:       mergePackets(session, background),
		BandwidthSeed: src.Int63(), // what Split would seed the bandwidth stream with
		Horizon:       horizon,
		Beats:         beats,
	}, nil
}

// SimConfig returns the device's base simulation config (no strategy set),
// rebuilding the channel trace from BandwidthSeed.
func (d Device) SimConfig() (sim.Config, error) {
	bw, err := bandwidth.FromSeed(d.BandwidthSeed, d.Horizon, nil)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Horizon:   d.Horizon,
		Trains:    d.Trains,
		Beats:     d.Beats,
		Packets:   d.Packets,
		Bandwidth: bw,
		Power:     radio.GalaxyS43G(),
		Seed:      d.Seed,
	}, nil
}

// runDevice synthesizes device i and measures its run pair. Everything is
// derived from (cfg.Seed, i) in a fixed draw order, so the outcome is a
// pure function of the device's identity.
//
//etrain:hotpath
func runDevice(cfg *Config, pop *workload.Population, i int) (DeviceOutcome, error) {
	dev, err := SynthesizeDeviceOpts(cfg.Seed, pop, i, cfg.Horizon, DeviceOptions{Diurnal: cfg.Diurnal})
	if err != nil {
		return DeviceOutcome{}, err
	}
	base, err := dev.SimConfig()
	if err != nil {
		return DeviceOutcome{}, err
	}
	base.Radio = cfg.radioModel
	out, err := RunPair(base, cfg.Theta, cfg.K)
	if err != nil {
		return DeviceOutcome{}, err
	}
	out.ClassIndex = dev.ClassIndex
	return out, nil
}

// RunPair simulates base twice — transmit-on-arrival versus eTrain under
// Θ theta and batch bound k — over identical heartbeat trains, cargo and
// bandwidth; base's Strategy is ignored. It leaves ClassIndex zero: the
// class is the caller's to know.
//
//etrain:hotpath
func RunPair(base sim.Config, theta float64, k int) (DeviceOutcome, error) {
	if base.Beats == nil {
		// Both runs would merge the same schedule; merge it once. RunMetrics
		// never appends a beat, so the two engines can share the slice.
		base.Beats = heartbeat.Merge(base.Trains, base.Horizon, nil)
	}
	without := base
	without.Strategy = baseline.NewImmediate()
	mWithout, err := sim.RunMetrics(without)
	if err != nil {
		return DeviceOutcome{}, fmt.Errorf("without eTrain: %w", err)
	}
	strategy, err := core.New(core.Options{Theta: theta, K: k})
	if err != nil {
		return DeviceOutcome{}, err
	}
	with := base
	with.Strategy = strategy
	mWith, err := sim.RunMetrics(with)
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

// deviceTrains draws the device's heartbeat apps: a contiguous cyclic
// subset of the paper's trio, 1–3 apps, so fleets exercise every train
// count of Fig. 10a.
func deviceTrains(src *randx.Source) []heartbeat.TrainApp {
	trio := heartbeat.DefaultTrio()
	n := 1 + src.Intn(len(trio))
	start := src.Intn(len(trio))
	trains := make([]heartbeat.TrainApp, 0, n)
	for i := 0; i < n; i++ {
		trains = append(trains, trio[(start+i)%len(trio)])
	}
	return trains
}

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

// mergePackets interleaves the session replay with the background cargo by
// arrival time and reassigns globally unique IDs in arrival order, as the
// sim queues require.
func mergePackets(session, background []workload.Packet) []workload.Packet {
	all := make([]workload.Packet, 0, len(session)+len(background))
	all = append(all, session...)
	all = append(all, background...)
	slices.SortStableFunc(all, func(a, b workload.Packet) int { return cmp.Compare(a.ArrivedAt, b.ArrivedAt) })
	for i := range all {
		all[i].ID = i
	}
	return all
}
