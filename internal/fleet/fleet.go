// Package fleet simulates an entire device population — each device a
// full eTrain system with its own heartbeat trains, cargo mix and
// user-activeness class — and aggregates per-device outcomes into
// streaming, mergeable statistics as each shard finishes, so a run's
// memory and each checkpoint's size stay flat as the fleet grows.
//
// The engine generalizes the paper's Fig. 11 deployment (100+ real users
// grouped by activeness, single-number savings per group) to
// population-scale distributions: per-class energy-saving and delay
// quantiles over 100k+ simulated devices.
//
// Devices are the unit of parallelism: the workers take devices in index
// order, so even a one-shard fleet runs on every worker. Shards are the
// unit of aggregation and checkpointing.
//
// Determinism contract (DESIGN.md §9): a device's entire behavior is a
// pure function of (fleet seed, device index); devices are partitioned
// into fixed-size shards independent of the worker count; and each shard,
// as soon as it and every shard before it have finished, folds its
// devices' outcomes in index order into per-class stats.Moments, which
// merge into the report in shard-index order, and counts their values in
// the run's per-class stats.Sketch. A sketch's state depends only on the
// samples it counts, so only the moments need that order. Worker count
// and scheduling order are therefore invisible: the final report is
// byte-identical at 1 and N workers, and a run resumed from a
// shard-boundary checkpoint reproduces the byte-exact report of an
// uninterrupted run.
package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"etrain/internal/diurnal"
	"etrain/internal/parallel"
	"etrain/internal/radio"
	"etrain/internal/randx"
	"etrain/internal/stats"
	"etrain/internal/workload"
)

// DefaultShardSize is the default number of devices per shard. Shards are
// the unit of aggregation and checkpointing, not of parallelism: a
// shard's devices spread over every worker whatever its size, and a shard
// that finishes before an earlier one keeps its outcomes until it folds.
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
	// Workers bounds concurrent device simulations: n > 0 verbatim, 0
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
	// CheckpointEvery takes a snapshot after every n-th completed shard;
	// 0 snapshots only on halt and at the end. A snapshot holds the folded
	// shard-order prefix (its moments and class sketches), so it costs the
	// same at any device count; a resume runs again the shards that had
	// finished beyond the prefix.
	CheckpointEvery int
	// Resume loads CheckpointPath before running and skips the prefix it
	// holds. The checkpoint's config hash must match this config.
	Resume bool

	// Progress, when non-nil, is invoked after every completed shard with
	// (completed, total). Calls are serialized; completion order is
	// scheduler-dependent even though the results are not. The fleet
	// engine itself never reads the wall clock — rate/ETA math belongs to
	// the caller (see cmd/etrain-fleet).
	Progress func(done, total int)
	// Halt, when non-nil, is polled once per shard beyond the restored
	// prefix, in shard order, when the shard's first device is taken.
	// Calls are serialized. Returning true stops that shard and every
	// later one; the shards admitted before it complete (and are
	// checkpointed), and Run returns ErrHalted.
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
		"%s devices=%d shard_size=%d seed=%d horizon=%s theta=%g k=%d alpha=%g mix=%s",
		hashToken, c.Devices, c.ShardSize, c.Seed, c.Horizon, c.Theta, c.K, c.SketchAlpha, mix.String())
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
	f, err := getFold(&norm)
	if err != nil {
		return nil, err
	}
	defer f.release()
	r := &run{
		cfg:  &norm,
		pop:  pop,
		hash: norm.hash(),
		open: make([]*shardOutcomes, norm.shardCount()),
		fold: f,
	}
	if norm.Resume {
		if err := loadCheckpoint(norm.CheckpointPath, r.hash, &norm, f); err != nil {
			return nil, err
		}
		r.polled = f.folded
	}
	if norm.Progress != nil {
		norm.Progress(f.finished(), norm.shardCount())
	}
	if err := parallel.ForEachStatus(parallel.NewLimit(norm.Workers), norm.Devices, r.device, r.finish); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	if norm.CheckpointPath != "" {
		if err := writeCheckpoint(norm.CheckpointPath, r.hash, f); err != nil {
			return nil, err
		}
	}
	if r.halted {
		return nil, ErrHalted
	}
	return f.report(&norm, r.hash)
}

// run is one Run's state. Devices are its jobs, so a shard's devices
// spread over every worker; shards are how their outcomes fold and
// checkpoint.
type run struct {
	cfg  *Config
	pop  *workload.Population
	hash string

	// mu guards the admission state: polled, halted and the writes to
	// open.
	mu sync.Mutex
	// polled counts the shards, in shard order, that were restored or
	// polled and admitted; halted is set when Halt stopped shard polled.
	polled int
	halted bool
	// open holds each admitted shard's outcomes until it finishes.
	open []*shardOutcomes

	// The rest belongs to the completion hook, which ForEachStatus
	// serializes.
	fold *fold
	// err is the first checkpoint failure.
	err error
}

// shardOutcomes collects one shard's device outcomes, slotted by device
// offset, from its admission until it folds.
type shardOutcomes struct {
	outs     []DeviceOutcome
	finished int
}

// outcomesPool holds the outcome buffers of folded shards, so a run
// allocates nothing per device once the pool holds a buffer per running or
// pending shard.
var outcomesPool = sync.Pool{New: func() any { return new(shardOutcomes) }}

// admit returns the outcome buffer of shard s, or nil when the device
// jobs of s are no-ops: the shard was restored, or Halt stopped it or an
// earlier shard. The first device of a shard to get here polls Halt for
// every shard up to s not yet polled, in shard order, so Halt is polled
// exactly once per shard that is not restored until it returns true, and
// every shard admitted before that completes.
func (r *run) admit(s int) *shardOutcomes {
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; r.polled <= s && !r.halted; r.polled++ {
		if r.cfg.Halt != nil && r.cfg.Halt() {
			r.halted = true
			break
		}
		so := outcomesPool.Get().(*shardOutcomes)
		lo, hi := r.cfg.shardRange(r.polled)
		so.outs = slices.Grow(so.outs[:0], hi-lo)[:hi-lo]
		so.finished = 0
		r.open[r.polled] = so
	}
	if s >= r.polled {
		return nil
	}
	return r.open[s]
}

// device is the job of device i: it runs the device's pair on a pooled
// scratch and slots the outcome into its shard's buffer.
//
//etrain:hotpath
func (r *run) device(i int) error {
	s := i / r.cfg.ShardSize
	so := r.admit(s)
	if so == nil {
		return nil
	}
	sc, err := getScratch(r.cfg)
	if err != nil {
		return err
	}
	out, err := sc.runDevice(r.cfg, r.pop, i)
	scratchPool.Put(sc)
	if err != nil {
		return fmt.Errorf("shard %d: device %d: %w", s, i, err)
	}
	so.outs[i-s*r.cfg.ShardSize] = out
	return nil
}

// finish is the completion hook of device i. It counts the finished
// devices of i's shard; on the last one it hands the shard's buffer to the
// run's fold, which folds every shard that continues the prefix, and
// reports progress and writes the checkpoint when one is due. Device i's
// admission wrote open[s] before its job ran, so the hook reads it
// without r.mu.
func (r *run) finish(i int, err error) {
	s := i / r.cfg.ShardSize
	so := r.open[s]
	if err != nil || so == nil {
		return
	}
	if so.finished++; so.finished < len(so.outs) {
		return
	}
	r.open[s] = nil
	r.fold.addShard(s, so)
	done := r.fold.finished()
	if r.cfg.Progress != nil {
		r.cfg.Progress(done, r.cfg.shardCount())
	}
	if r.cfg.CheckpointPath != "" && r.cfg.CheckpointEvery > 0 && done%r.cfg.CheckpointEvery == 0 {
		if werr := writeCheckpoint(r.cfg.CheckpointPath, r.hash, r.fold); werr != nil {
			r.err = cmp.Or(r.err, werr)
		}
	}
}
