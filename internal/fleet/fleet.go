// Package fleet simulates an entire device population — each device a
// full eTrain system with its own heartbeat trains, cargo mix and
// user-activeness class — and aggregates per-device outcomes into
// streaming, mergeable statistics, so memory scales with the number of
// shards, never with the number of devices.
//
// The engine generalizes the paper's Fig. 11 deployment (100+ real users
// grouped by activeness, single-number savings per group) to
// population-scale distributions: per-class energy-saving and delay
// quantiles over 100k+ simulated devices.
//
// Determinism contract (DESIGN.md §9): a device's entire behavior is a
// pure function of (fleet seed, device index); devices are partitioned
// into fixed-size shards independent of the worker count; each shard
// folds its devices in index order into mergeable aggregates
// (stats.Moments, stats.Sketch); and shard aggregates merge in
// shard-index order. Worker count and scheduling order are therefore
// invisible: the final report is byte-identical at 1 and N workers, and a
// run resumed from a shard-boundary checkpoint reproduces the byte-exact
// report of an uninterrupted run.
package fleet

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/parallel"
	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/stats"
	"etrain/internal/workload"
)

// DefaultShardSize is the default number of devices per shard. Shards are
// the unit of parallelism, aggregation and checkpointing; the default
// keeps shard counts (and hence resident aggregate memory) small while
// leaving plenty of shards to spread across workers.
const DefaultShardSize = 256

// DefaultK is the per-heartbeat batch bound handed to each device's
// eTrain scheduler when Config.K is unset, matching the paper's k=20.
const DefaultK = 20

// ErrHalted reports that Config.Halt stopped the run at a shard boundary.
// When a checkpoint path is configured, the completed shards were
// snapshotted before returning; resuming later reproduces the
// uninterrupted run's report byte for byte.
var ErrHalted = errors.New("fleet: run halted at shard boundary")

// Config describes one population run.
type Config struct {
	// Devices is the population size. Required.
	Devices int
	// ShardSize is the number of devices per shard (default
	// DefaultShardSize). The shard layout is part of the run's identity:
	// it is independent of Workers, and changing it changes the
	// config hash.
	ShardSize int
	// Workers bounds concurrent shard simulations: n > 0 verbatim, 0
	// sequential, negative one per CPU. The report is byte-identical at
	// every setting.
	Workers int
	// Seed drives all randomness; every device stream is derived from
	// (Seed, device index).
	Seed int64
	// Horizon is each device's simulated span (default the paper's
	// 10-minute app-use session).
	Horizon time.Duration
	// Theta is the eTrain cost bound Θ handed to every device.
	Theta float64
	// K is the per-heartbeat batch bound (default DefaultK).
	K int
	// Mix is the activeness-class composition of the population (default
	// workload.DefaultMix()).
	Mix []workload.ClassShare
	// SketchAlpha is the relative accuracy of the quantile sketches
	// (default stats.DefaultSketchAlpha), at least stats.MinSketchAlpha.
	SketchAlpha float64
	// Diurnal, when non-nil, shapes every device's cargo and heartbeat
	// cadence by the profile's activity curves and scheduled events. It is
	// part of the run's identity (the profile hash enters the config hash),
	// and a nil profile reproduces the legacy fleet byte for byte.
	Diurnal *diurnal.Profile
	// Radio, when non-empty, names the radio generation every device's
	// energy is accounted under (radio.ModelByName: "3g", "lte-drx",
	// "nr-drx", ...). Empty keeps the legacy 3G RRC power model and the
	// legacy config hash.
	Radio string

	// radioModel is Radio resolved by normalize.
	radioModel radio.Model

	// CheckpointPath, when non-empty, is where shard-boundary snapshots
	// are written (atomically, via a temp file and rename). A final
	// snapshot is written on success and on halt.
	CheckpointPath string
	// CheckpointEvery writes a snapshot after every n-th completed shard;
	// 0 snapshots only on halt and at the end.
	CheckpointEvery int
	// Resume loads CheckpointPath before running and skips the shards it
	// holds. The checkpoint's config hash must match this config.
	Resume bool

	// Progress, when non-nil, is invoked after every completed shard with
	// (completed, total). Calls are serialized; completion order is
	// scheduler-dependent even though the results are not. The fleet
	// engine itself never reads the wall clock — rate/ETA math belongs to
	// the caller (see cmd/etrain-fleet).
	Progress func(done, total int)
	// Halt, when non-nil, is polled before each shard starts; returning
	// true stops the run at the next shard boundary with ErrHalted.
	Halt func() bool
}

// normalize applies defaults and validates, returning the effective
// config and the population sampler.
func (c Config) normalize() (Config, *workload.Population, error) {
	if c.Devices <= 0 {
		return c, nil, fmt.Errorf("fleet: non-positive device count %d", c.Devices)
	}
	if c.ShardSize < 0 {
		return c, nil, fmt.Errorf("fleet: negative shard size %d", c.ShardSize)
	}
	if c.ShardSize == 0 {
		c.ShardSize = DefaultShardSize
	}
	switch {
	case c.Workers == 0:
		c.Workers = 1
	case c.Workers < 0:
		c.Workers = parallel.Workers(0)
	}
	if c.Horizon < 0 {
		return c, nil, fmt.Errorf("fleet: negative horizon %v", c.Horizon)
	}
	if c.Horizon == 0 {
		c.Horizon = workload.SessionLength
	}
	if c.Theta < 0 {
		return c, nil, fmt.Errorf("fleet: negative theta %v", c.Theta)
	}
	if c.K < 0 {
		return c, nil, fmt.Errorf("fleet: negative k %d", c.K)
	}
	if c.K == 0 {
		c.K = DefaultK
	}
	if c.SketchAlpha == 0 {
		c.SketchAlpha = stats.DefaultSketchAlpha
	}
	if err := stats.CheckSketchAlpha(c.SketchAlpha); err != nil {
		return c, nil, fmt.Errorf("fleet: %w", err)
	}
	if c.Mix == nil {
		c.Mix = workload.DefaultMix()
	}
	if c.CheckpointEvery < 0 {
		return c, nil, fmt.Errorf("fleet: negative checkpoint interval %d", c.CheckpointEvery)
	}
	if c.Resume && c.CheckpointPath == "" {
		return c, nil, fmt.Errorf("fleet: Resume set without a checkpoint path")
	}
	if c.Diurnal != nil {
		if err := c.Diurnal.Validate(); err != nil {
			return c, nil, fmt.Errorf("fleet: %w", err)
		}
	}
	if c.Radio != "" {
		m, err := radio.ModelByName(c.Radio)
		if err != nil {
			return c, nil, fmt.Errorf("fleet: %w", err)
		}
		c.radioModel = m
	}
	pop, err := workload.NewPopulation(c.Mix)
	if err != nil {
		return c, nil, err
	}
	return c, pop, nil
}

// shardCount returns how many shards the (normalized) config produces.
func (c Config) shardCount() int {
	return (c.Devices + c.ShardSize - 1) / c.ShardSize
}

// shardRange returns the device index range [lo, hi) of shard s.
func (c Config) shardRange(s int) (lo, hi int) {
	lo = s * c.ShardSize
	hi = lo + c.ShardSize
	if hi > c.Devices {
		hi = c.Devices
	}
	return lo, hi
}

// hash names the run's simulation identity: everything that shapes the
// per-device results and the aggregate layout, and nothing that does not
// (worker count, checkpoint cadence and callbacks are excluded — a
// checkpoint taken at one worker count resumes at any other).
func (c Config) hash() string {
	var mix strings.Builder
	for i, s := range c.Mix {
		if i > 0 {
			mix.WriteByte(',')
		}
		fmt.Fprintf(&mix, "%s:%g", s.Class, s.Weight)
	}
	canonical := fmt.Sprintf(
		"fleet/v%d devices=%d shard_size=%d seed=%d horizon=%s theta=%g k=%d alpha=%g mix=%s",
		checkpointVersion, c.Devices, c.ShardSize, c.Seed, c.Horizon, c.Theta, c.K, c.SketchAlpha, mix.String())
	// Diurnal and radio tokens appear only when set, so legacy configs keep
	// their hashes and old checkpoints stay resumable.
	if c.Radio != "" {
		canonical += fmt.Sprintf(" radio=%s", c.Radio)
	}
	if c.Diurnal != nil {
		canonical += fmt.Sprintf(" diurnal=%s", c.Diurnal.Hash())
	}
	return fmt.Sprintf("%016x", randx.DeriveString(canonical))
}

// Run simulates the population and returns its report. With Resume set it
// first loads the checkpoint and simulates only the missing shards; the
// report is byte-identical to an uninterrupted run's.
func Run(cfg Config) (*Report, error) {
	norm, pop, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	hash := norm.hash()
	shards := norm.shardCount()
	aggs := make([]*ShardAggregate, shards)
	completed := make([]bool, shards)
	done := 0
	if norm.Resume {
		done, err = loadCheckpoint(norm.CheckpointPath, hash, aggs, completed, &norm)
		if err != nil {
			return nil, err
		}
	}
	if norm.Progress != nil {
		norm.Progress(done, shards)
	}

	var ckptErr error
	runErr := parallel.ForEachStatus(parallel.NewLimit(norm.Workers), shards, func(s int) error {
		if completed[s] {
			return nil
		}
		if norm.Halt != nil && norm.Halt() {
			return ErrHalted
		}
		agg, err := runShard(&norm, pop, s)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		aggs[s] = agg
		return nil
	}, func(s int, err error) {
		// Serialized by ForEachStatus: safe to count progress and to
		// snapshot every shard this hook has been told about.
		if err != nil || completed[s] {
			return
		}
		completed[s] = true
		done++
		if norm.Progress != nil {
			norm.Progress(done, shards)
		}
		if norm.CheckpointPath != "" && norm.CheckpointEvery > 0 && done%norm.CheckpointEvery == 0 {
			if werr := writeCheckpoint(norm.CheckpointPath, hash, aggs, completed); werr != nil && ckptErr == nil {
				ckptErr = werr
			}
		}
	})
	if runErr != nil {
		if !haltOnly(runErr) {
			return nil, runErr
		}
		if norm.CheckpointPath != "" {
			if err := writeCheckpoint(norm.CheckpointPath, hash, aggs, completed); err != nil {
				return nil, err
			}
		}
		return nil, ErrHalted
	}
	if ckptErr != nil {
		return nil, ckptErr
	}
	if norm.CheckpointPath != "" {
		if err := writeCheckpoint(norm.CheckpointPath, hash, aggs, completed); err != nil {
			return nil, err
		}
	}
	return buildReport(&norm, hash, aggs)
}

// haltOnly reports whether every failure in a fan-out error is ErrHalted.
func haltOnly(err error) bool {
	var errs parallel.Errors
	if !errors.As(err, &errs) {
		return errors.Is(err, ErrHalted)
	}
	for _, e := range errs {
		if !errors.Is(e.Err, ErrHalted) {
			return false
		}
	}
	return len(errs) > 0
}

// runShard simulates the devices of shard s and folds their outcomes, in
// device-index order, into one aggregate. The devices share one pooled
// scratch, which goes back to the pool when the shard ends.
//
//etrain:hotpath
func runShard(cfg *Config, pop *workload.Population, s int) (*ShardAggregate, error) {
	agg, err := newShardAggregate(s, len(cfg.Mix), cfg.SketchAlpha)
	if err != nil {
		return nil, err
	}
	sc, err := getScratch(cfg)
	if err != nil {
		return nil, err
	}
	defer scratchPool.Put(sc)
	lo, hi := cfg.shardRange(s)
	for i := lo; i < hi; i++ {
		out, err := sc.runDevice(cfg, pop, i)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		agg.add(out)
	}
	return agg, nil
}
