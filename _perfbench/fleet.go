package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"etrain/internal/baseline"
	"etrain/internal/core"
	"etrain/internal/diurnal"
	"etrain/internal/fleet"
	"etrain/internal/radio"
	"etrain/internal/sim"
	"etrain/internal/stats"
	"etrain/internal/workload"
)

// Fleet workload parameters: the paper's 10-minute sessions, Θ=4, k=20.
const (
	fleetTheta = 4.0
	fleetK     = 20
	// weekScale replays a week of the diurnal profile in one session.
	weekScale = 1008
)

// fleetConfig returns one population's config for the workload.
func fleetConfig(workloadName string, seed int64, devices, shardSize, workers int) fleet.Config {
	cfg := fleet.Config{
		Devices:   devices,
		ShardSize: shardSize,
		Workers:   workers,
		Seed:      seed,
		Horizon:   workload.SessionLength,
		Theta:     fleetTheta,
		K:         fleetK,
	}
	if workloadName == "fleet-drx-diurnal" {
		prof := diurnal.Week()
		prof.TimeScale = weekScale
		cfg.Diurnal = prof
		cfg.Radio = "lte-drx"
	}
	return cfg
}

// fleetSetup is everything a fleet run builds before it measures.
type fleetSetup struct {
	heavy []fleet.Config
	light []fleet.Config
}

// setUpFleet builds the populations and runs a warm-up report, so lazy
// initialization and pools are warm before timing starts.
func setUpFleet(r *run) (*fleetSetup, error) {
	sz := r.opts.size
	fs := &fleetSetup{}
	for i := 0; i < sz.heavyConfigs; i++ {
		seed := mix64(r.opts.seed, 1, uint64(i))
		fs.heavy = append(fs.heavy, fleetConfig(r.opts.workload, seed, sz.heavyDevices, 0, nproc()))
	}
	for i := 0; i < sz.lightConfigs; i++ {
		seed := mix64(r.opts.seed, 2, uint64(i))
		fs.light = append(fs.light, fleetConfig(r.opts.workload, seed, sz.lightDevices, sz.lightDevices, nproc()))
	}
	warm := fleetConfig(r.opts.workload, mix64(r.opts.seed, 3), sz.warmDevices, 0, nproc())
	if _, err := fleet.Run(warm); err != nil {
		return nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	return fs, nil
}

// setUpFleetTimed runs set-up opts.size.setups times, records the median
// as setup_s and returns the last set-up.
func setUpFleetTimed(r *run) (*fleetSetup, error) {
	var fs *fleetSetup
	var times []float64
	for i := 0; i < r.opts.size.setups; i++ {
		start := time.Now()
		var err error
		if fs, err = setUpFleet(r); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.set("setup_s", quantile(times, 0.5))
	return fs, nil
}

// render prints a report to bytes.
func render(rep *fleet.Report) ([]byte, error) {
	var b bytes.Buffer
	if err := rep.Fprint(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// singleWorker returns cfg run by one worker.
func singleWorker(cfg fleet.Config) fleet.Config {
	cfg.Workers = 1
	return cfg
}

func runFleet(r *run) error {
	fs, err := setUpFleetTimed(r)
	if err != nil {
		return err
	}
	if r.opts.trace {
		return traceFleet(r, fs)
	}

	budget := time.Duration(r.opts.seconds * float64(time.Second))
	type timedReport struct {
		cfg int
		rep *fleet.Report
		lat time.Duration
	}
	var heavyReps, lightReps []timedReport
	var devices int

	report := func(cfgs []fleet.Config, i int, into *[]timedReport) {
		c := i % len(cfgs)
		t0 := time.Now()
		rep, err := fleet.Run(cfgs[c])
		lat := time.Since(t0)
		r.attempted += int64(cfgs[c].Devices)
		if err != nil {
			r.devicesFailed(int64(cfgs[c].Devices), "fleet.Run: %v", err)
			return
		}
		devices += cfgs[c].Devices
		*into = append(*into, timedReport{cfg: c, rep: rep, lat: lat})
	}
	// Heavy and light reports alternate over the whole run, so a slow
	// stretch of the shared host weighs on both figures alike.
	var heavyCPU time.Duration
	before := memSnapshot()
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		cpu0 := cpuTime()
		report(fs.heavy, i, &heavyReps)
		heavyCPU += cpuTime() - cpu0
		report(fs.light, i, &lightReps)
	}
	after := memSnapshot()

	// Outside the timed region: every report must be byte-identical to a
	// Workers: 1 run of the same config, which must cover every device and
	// show eTrain saving energy on average.
	check := func(cfgs []fleet.Config, reps []timedReport) error {
		refs := make([][]byte, len(cfgs))
		for _, tr := range reps {
			if refs[tr.cfg] == nil {
				ref, err := fleet.Run(singleWorker(cfgs[tr.cfg]))
				if err != nil {
					return fmt.Errorf("reference run: %w", err)
				}
				if ref.Devices != cfgs[tr.cfg].Devices || !(ref.Total.WithJ.Mean() < ref.Total.WithoutJ.Mean()) {
					r.fail("config %d: report covers %d devices, with_J %v, without_J %v",
						tr.cfg, ref.Devices, ref.Total.WithJ.Mean(), ref.Total.WithoutJ.Mean())
				}
				if refs[tr.cfg], err = render(ref); err != nil {
					return err
				}
			}
			got, err := render(tr.rep)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, refs[tr.cfg]) {
				r.devicesFailed(int64(cfgs[tr.cfg].Devices), "config %d: report differs from the Workers: 1 report", tr.cfg)
			}
		}
		return nil
	}
	if err := check(fs.heavy, heavyReps); err != nil {
		return err
	}
	if err := check(fs.light, lightReps); err != nil {
		return err
	}
	if len(heavyReps) == 0 || len(lightReps) == 0 {
		r.fail("a phase completed no report")
		return nil
	}

	latencies := func(reps []timedReport) []float64 {
		xs := make([]float64, len(reps))
		for i, tr := range reps {
			xs[i] = ms(tr.lat)
		}
		return xs
	}
	rates := make([]float64, len(heavyReps))
	heavyDevices := 0
	for i, tr := range heavyReps {
		rates[i] = float64(tr.rep.Devices) / tr.lat.Seconds()
		heavyDevices += tr.rep.Devices
	}
	lightLat, heavyLat := latencies(lightReps), latencies(heavyReps)
	fmt.Fprintf(r.out, "heavy: %d reports of %d devices over %d workers, ms min %.1f p50 %.1f p90 %.1f max %.1f\n",
		len(heavyReps), r.opts.size.heavyDevices, nproc(),
		quantile(heavyLat, 0), quantile(heavyLat, 0.5), quantile(heavyLat, 0.9), quantile(heavyLat, 1))
	fmt.Fprintf(r.out, "light: %d reports of %d devices on one shard, ms min %.1f p50 %.1f p90 %.1f max %.1f\n",
		len(lightReps), r.opts.size.lightDevices,
		quantile(lightLat, 0), quantile(lightLat, 0.5), quantile(lightLat, 0.9), quantile(lightLat, 1))
	r.set("devices_per_s", quantile(rates, 0.5))
	r.set("cpu_us_per_device", float64(heavyCPU)/float64(heavyDevices)/1e3)
	r.set("alloc_bytes_per_device", float64(after.TotalAlloc-before.TotalAlloc)/float64(devices))
	r.set("max_rss_mb", maxRSSMB())
	r.set("p50_ms.light", quantile(lightLat, 0.5))
	r.set("p50_ms.heavy", quantile(heavyLat, 0.5))
	return nil
}

// layerCounts aggregates the traced fleet pipeline's per-slot and
// re-timed costs.
type layerCounts struct {
	core, base slotCount
	radioNs    time.Duration
	tx         int64
}

// traceFleet alternates an untraced single-worker fleet.Run with the
// traced pipeline over the same devices, so stage costs and the untraced
// per-device figure come from the same inputs on one worker.
func traceFleet(r *run, fs *fleetSetup) error {
	budget := time.Duration(r.opts.seconds * float64(time.Second))
	tr := newTracer()
	lc := layerCounts{core: slotCount{rng: 1}, base: slotCount{rng: 2}}
	var untraced time.Duration
	var untracedDevices, tracedDevices int
	var gcCycles uint32
	var synthAllocs, synthSampled uint64

	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		c := i % len(fs.heavy)
		cfg := singleWorker(fs.heavy[c])
		ms0 := memSnapshot()
		t0 := time.Now()
		rep, err := fleet.Run(cfg)
		untraced += time.Since(t0)
		ms1 := memSnapshot()
		r.attempted += int64(cfg.Devices)
		if err != nil {
			return fmt.Errorf("fleet.Run: %w", err)
		}
		gcCycles += ms1.NumGC - ms0.NumGC
		untracedDevices += cfg.Devices

		if i < len(fs.heavy) {
			// First pass over each config: the parallel report must match.
			par, err := fleet.Run(fs.heavy[c])
			if err != nil {
				return fmt.Errorf("fleet.Run: %w", err)
			}
			a, errA := render(rep)
			b, errB := render(par)
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				r.fail("config %d: Workers %d report differs from Workers 1", c, nproc())
			}
			allocs, n, err := countSynthAllocs(cfg, r.opts.size.allocSample)
			if err != nil {
				return err
			}
			synthAllocs += allocs
			synthSampled += n
		}

		withJ, withoutJ, err := tracePipeline(cfg, tr, &lc)
		if err != nil {
			return err
		}
		tracedDevices += cfg.Devices
		if !agree(withJ.Mean(), rep.Total.WithJ.Mean()) || !agree(withoutJ.Mean(), rep.Total.WithoutJ.Mean()) {
			r.fail("config %d: traced fold with_J %v without_J %v, fleet.Run all row %v %v",
				c, withJ.Mean(), withoutJ.Mean(), rep.Total.WithJ.Mean(), rep.Total.WithoutJ.Mean())
		}
	}
	ls := tr.layers()
	n := float64(tracedDevices)
	per := func(name string) float64 {
		if lt := ls[name]; lt != nil {
			return float64(lt.total) / n
		}
		return 0
	}
	u := float64(untraced) / float64(untracedDevices)
	traced := per("device")
	inside, pair := clockCost()
	coreSlots, baseSlots := float64(lc.core.slots), float64(lc.base.slots)
	coreNs := lc.core.perSlot(inside) * coreSlots / n
	baseNs := lc.base.perSlot(inside) * baseSlots / n
	radioNs := float64(lc.radioNs) / n
	timerNs := float64(lc.core.timed+lc.base.timed) * pair / n
	simSelf := per("sim.with") + per("sim.without") - coreNs - baseNs - radioNs - timerNs
	slots := coreSlots + baseSlots
	stages := per("synth") + per("bandwidth") + coreNs + baseNs + simSelf + radioNs + per("fold")

	r.set("synth.ns_per_device", per("synth"))
	r.set("synth.allocs_per_device", float64(synthAllocs)/float64(synthSampled))
	r.set("bandwidth.ns_per_device", per("bandwidth"))
	r.set("core.schedule_ns_per_slot", coreNs*n/coreSlots)
	r.set("core.slots_per_device", coreSlots/n)
	r.set("core.empty_slot_frac", float64(lc.core.empty)/coreSlots)
	r.set("baseline.schedule_ns_per_slot", baseNs*n/baseSlots)
	r.set("sim.step_self_ns_per_slot", simSelf*n/slots)
	r.set("sim.tx_per_device", float64(lc.tx)/n)
	r.set("radio.account_ns_per_device", radioNs)
	r.set("stats.fold_ns_per_device", per("fold"))
	r.set("fleet.untraced_ns_per_device", u)
	r.set("fleet.traced_ns_per_device", traced)
	r.set("fleet.residual_ns_per_device", u-stages)
	r.set("gc.cycles_per_kdevice", float64(gcCycles)/(float64(untracedDevices)/1000))
	r.set("trace.overhead_frac", traced/u-1)

	fmt.Fprintf(r.out, "traced %d devices, untraced %d devices, both on one worker\n", tracedDevices, untracedDevices)
	printLayers(r.out, ls, n, "device")
	fmt.Fprintf(r.out, "\nper-device ledger (ns): synth %.0f + bandwidth %.0f + core %.0f + baseline %.0f + sim self %.0f + radio %.0f + fold %.0f = %.0f; untraced %.0f; residual %.0f\n",
		per("synth"), per("bandwidth"), coreNs, baseNs, simSelf, radioNs, per("fold"), stages, u, u-stages)
	fmt.Fprintf(r.out, "slot timers (one slot in %d) removed from the stages: %.0f ns per device (a clock read costs %.1f ns, a timed call %.1f ns)\n", slotSample,
		timerNs, inside, pair)
	return tr.write(r.opts.spansDir, "spans-"+r.opts.workload+".jsonl")
}

// agree reports whether two fold results match to fold-order rounding.
func agree(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// tracePipeline runs cfg's devices one by one through the same public
// calls fleet.Run makes, with a span around each layer, and folds the
// outcomes. The radio accounting is re-timed on each result timeline
// after the device span closes.
func tracePipeline(cfg fleet.Config, tr *tracer, lc *layerCounts) (withJ, withoutJ stats.Moments, err error) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		return withJ, withoutJ, err
	}
	var model radio.Model
	if cfg.Radio != "" {
		if model, err = radio.ModelByName(cfg.Radio); err != nil {
			return withJ, withoutJ, err
		}
	}
	opts := fleet.DeviceOptions{Diurnal: cfg.Diurnal}
	for i := 0; i < cfg.Devices; i++ {
		id := int64(i)
		root := tr.begin("device", -1, id)
		s := tr.begin("synth", root, id)
		dev, err := fleet.SynthesizeDeviceOpts(cfg.Seed, pop, i, cfg.Horizon, opts)
		tr.end(s)
		if err != nil {
			return withJ, withoutJ, fmt.Errorf("device %d: %w", i, err)
		}
		s = tr.begin("bandwidth", root, id)
		base, err := dev.SimConfig()
		tr.end(s)
		if err != nil {
			return withJ, withoutJ, fmt.Errorf("device %d: %w", i, err)
		}
		base.Radio = model

		without := base
		without.Strategy = &timedStrategy{inner: baseline.NewImmediate(), c: &lc.base}
		s = tr.begin("sim.without", root, id)
		resWithout, err := sim.Run(without)
		tr.end(s)
		if err != nil {
			return withJ, withoutJ, fmt.Errorf("device %d without eTrain: %w", i, err)
		}
		strategy, err := core.New(core.Options{Theta: cfg.Theta, K: cfg.K})
		if err != nil {
			return withJ, withoutJ, err
		}
		with := base
		with.Strategy = &timedStrategy{inner: strategy, c: &lc.core}
		s = tr.begin("sim.with", root, id)
		resWith, err := sim.Run(with)
		tr.end(s)
		if err != nil {
			return withJ, withoutJ, fmt.Errorf("device %d with eTrain: %w", i, err)
		}
		s = tr.begin("fold", root, id)
		withJ.Add(resWith.Metrics().EnergyJ)
		withoutJ.Add(resWithout.Metrics().EnergyJ)
		tr.end(s)
		tr.end(root)

		for _, res := range []*sim.Result{resWithout, resWith} {
			t0 := time.Now()
			var e radio.Energy
			if model != nil {
				e = res.Timeline.AccountEnergyModel(model, base.Horizon+model.TailTime())
			} else {
				e = res.Timeline.AccountEnergy(base.Power, base.Horizon+base.Power.TailTime())
			}
			lc.radioNs += time.Since(t0)
			lc.tx += int64(res.Timeline.Len())
			if e != res.Energy {
				return withJ, withoutJ, fmt.Errorf("device %d: re-accounted energy %+v, run reported %+v", i, e, res.Energy)
			}
		}
	}
	return withJ, withoutJ, nil
}

// countSynthAllocs counts heap allocations per synthesized device over the
// first n devices of cfg.
func countSynthAllocs(cfg fleet.Config, n int) (allocs, devices uint64, err error) {
	pop, err := workload.NewPopulation(workload.DefaultMix())
	if err != nil {
		return 0, 0, err
	}
	if n > cfg.Devices {
		n = cfg.Devices
	}
	opts := fleet.DeviceOptions{Diurnal: cfg.Diurnal}
	before := memSnapshot()
	for i := 0; i < n; i++ {
		if _, err := fleet.SynthesizeDeviceOpts(cfg.Seed, pop, i, cfg.Horizon, opts); err != nil {
			return 0, 0, err
		}
	}
	after := memSnapshot()
	return after.Mallocs - before.Mallocs, uint64(n), nil
}
