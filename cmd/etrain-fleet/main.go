// Command etrain-fleet simulates a population of eTrain devices and
// prints per-activeness-class energy-saving and delay statistics.
//
// Usage:
//
//	go run ./cmd/etrain-fleet -devices 100000 -workers 8
//	go run ./cmd/etrain-fleet -devices 100000 -checkpoint fleet.ckpt
//	go run ./cmd/etrain-fleet -devices 100000 -checkpoint fleet.ckpt -resume
//	go run ./cmd/etrain-fleet -devices 20000 -cpuprofile cpu.out -memprofile mem.out
//
// The report is byte-identical at every -workers setting, and an
// interrupted run (Ctrl-C writes a shard-boundary checkpoint) resumed with
// -resume reproduces the uninterrupted report exactly. Progress and ETA go
// to stderr; the report goes to stdout. -cpuprofile and -memprofile write
// runtime/pprof profiles on every exit, an interrupted run's included.
//
// This command is the wall-clock boundary of the fleet subsystem: rate and
// ETA for the operator are computed here, never inside internal/fleet,
// whose results are pure functions of the configuration.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/fleet"
	"etrain/internal/profiling"
	"etrain/internal/radio"
	"etrain/internal/workload"
)

func main() {
	devices := flag.Int("devices", 10000, "population size")
	workers := flag.Int("workers", 1, "concurrent device simulations (negative: one per CPU)")
	seed := flag.Int64("seed", 42, "base seed; every device derives from (seed, index)")
	shardSize := flag.Int("shard-size", 0, "devices per shard (0: default 256)")
	horizon := flag.Duration("horizon", 0, "per-device simulated span (0: the 10-minute session)")
	theta := flag.Float64("theta", 4.0, "eTrain cost bound Θ")
	k := flag.Int("k", fleet.DefaultK, "per-heartbeat batch bound k")
	mixFlag := flag.String("mix", "", `activeness mix as "active=0.2,moderate=0.3,inactive=0.5" (empty: default mix)`)
	alpha := flag.Float64("alpha", 0, "quantile-sketch relative accuracy in [0.001, 1) (0: default 0.01)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file for shard-boundary snapshots")
	every := flag.Int("checkpoint-every", 8, "snapshot after every n completed shards (with -checkpoint); a snapshot's size does not grow with -devices")
	resume := flag.Bool("resume", false, "resume from -checkpoint instead of starting fresh")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	diurnalFlag := flag.String("diurnal", "", "diurnal activity profile: "+strings.Join(diurnal.PresetNames(), ", ")+" (empty: none)")
	timeScale := flag.Float64("time-scale", 0, "diurnal clock compression, e.g. 1008 replays a week in 10 min (0: profile default)")
	phaseJitter := flag.Duration("phase-jitter", -1, "per-device diurnal phase-offset span (negative: profile default)")
	diurnalStart := flag.Duration("diurnal-start", -1, "where on the diurnal clock sim time zero lands (negative: profile default)")
	radioFlag := flag.String("radio", "", "radio generation for energy accounting: "+strings.Join(radio.ModelNames(), ", ")+" (empty: 3G RRC)")
	cpuProfile := flag.String("cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a runtime/pprof allocation profile of the run to this file at exit")
	flag.Parse()

	mix, err := parseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etrain-fleet:", err)
		os.Exit(2)
	}
	prof, err := parseDiurnal(*diurnalFlag, *timeScale, *phaseJitter, *diurnalStart)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etrain-fleet:", err)
		os.Exit(2)
	}
	cfg := fleet.Config{
		Devices:         *devices,
		ShardSize:       *shardSize,
		Workers:         *workers,
		Seed:            *seed,
		Horizon:         *horizon,
		Theta:           *theta,
		K:               *k,
		Mix:             mix,
		SketchAlpha:     *alpha,
		CheckpointPath:  *checkpoint,
		CheckpointEvery: *every,
		Resume:          *resume,
		Diurnal:         prof,
		Radio:           *radioFlag,
	}
	profiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "etrain-fleet:", err)
		os.Exit(2)
	}
	// Ctrl-C halts the run at a shard boundary and returns ErrHalted, so
	// every exit path passes through here and the profiles are written.
	err = run(cfg, *quiet)
	if perr := profiles.Stop(); perr != nil {
		fmt.Fprintln(os.Stderr, "etrain-fleet:", perr)
		if err == nil {
			os.Exit(1)
		}
	}
	if err != nil {
		if errors.Is(err, fleet.ErrHalted) {
			if cfg.CheckpointPath != "" {
				fmt.Fprintf(os.Stderr, "etrain-fleet: interrupted; checkpoint written to %s — rerun with -resume\n", cfg.CheckpointPath)
			} else {
				fmt.Fprintln(os.Stderr, "etrain-fleet: interrupted; no -checkpoint configured, progress discarded")
			}
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "etrain-fleet:", err)
		os.Exit(1)
	}
}

func run(cfg fleet.Config, quiet bool) error {
	// Ctrl-C / SIGTERM requests a halt at the next shard boundary; the
	// engine then snapshots completed shards and returns ErrHalted.
	var halted atomic.Bool
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			halted.Store(true)
		}
	}()
	cfg.Halt = halted.Load

	//lint:ignore notime CLI progress boundary: rate/ETA for the operator; the simulation never reads the wall clock
	start := time.Now()
	restored, first := 0, true
	cfg.Progress = func(done, total int) {
		if first {
			first, restored = false, done
		}
		if quiet {
			return
		}
		//lint:ignore notime CLI progress boundary: rate/ETA for the operator; the simulation never reads the wall clock
		elapsed := time.Since(start)
		eta := "?"
		if done > restored && done < total {
			perShard := elapsed / time.Duration(done-restored)
			eta = (time.Duration(total-done) * perShard).Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "\rshards %d/%d  elapsed %s  eta %s   ",
			done, total, elapsed.Round(time.Second), eta)
	}

	rep, err := fleet.Run(cfg)
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	return rep.Fprint(os.Stdout)
}

// parseDiurnal resolves the -diurnal preset and applies the clock
// overrides. The knob flags require -diurnal; negative durations mean
// "keep the profile's default".
func parseDiurnal(name string, timeScale float64, phaseJitter, start time.Duration) (*diurnal.Profile, error) {
	if name == "" {
		if timeScale != 0 || phaseJitter >= 0 || start >= 0 {
			return nil, fmt.Errorf("-time-scale/-phase-jitter/-diurnal-start require -diurnal")
		}
		return nil, nil
	}
	prof, err := diurnal.ByName(name)
	if err != nil {
		return nil, err
	}
	if timeScale != 0 {
		prof.TimeScale = timeScale
	}
	if phaseJitter >= 0 {
		prof.PhaseJitter = phaseJitter
	}
	if start >= 0 {
		prof.Start = start
	}
	return prof, prof.Validate()
}

// parseMix converts the -mix flag ("class=weight,...") to a class mix.
func parseMix(s string) ([]workload.ClassShare, error) {
	if s == "" {
		return nil, nil
	}
	var mix []workload.ClassShare
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("mix entry %q: want class=weight", part)
		}
		class, err := workload.ParseClass(strings.TrimSpace(kv[0]))
		if err != nil {
			return nil, err
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("mix entry %q: bad weight: %v", part, err)
		}
		mix = append(mix, workload.ClassShare{Class: class, Weight: w})
	}
	return mix, nil
}
