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
	"strconv"
	"sync"
	"time"

	"etrain/internal/core"
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
// checkpoint taken at one worker count resumes at any other). Its
// canonical text streams through FNV-1a a field at a time from a stack
// buffer, so it allocates only the string it returns.
func (c Config) hash() string {
	var buf [64]byte
	h := uint64(randx.FNVOffset)
	put := func(piece []byte) { h = randx.FNV1a(h, piece) }
	put(strconv.AppendInt(append(buf[:0], hashToken+" devices="...), int64(c.Devices), 10))
	put(strconv.AppendInt(append(buf[:0], " shard_size="...), int64(c.ShardSize), 10))
	put(strconv.AppendInt(append(buf[:0], " seed="...), c.Seed, 10))
	put(append(append(buf[:0], " horizon="...), c.Horizon.String()...))
	put(strconv.AppendFloat(append(buf[:0], " theta="...), c.Theta, 'g', -1, 64))
	put(strconv.AppendInt(append(buf[:0], " k="...), int64(c.K), 10))
	put(strconv.AppendFloat(append(buf[:0], " alpha="...), c.SketchAlpha, 'g', -1, 64))
	put(append(buf[:0], " mix="...))
	for i, s := range c.Mix {
		b := buf[:0]
		if i > 0 {
			b = append(b, ',')
		}
		put(strconv.AppendFloat(append(append(b, s.Class.String()...), ':'), s.Weight, 'g', -1, 64))
	}
	// Diurnal and radio tokens appear only when set, so legacy configs keep
	// their hashes and old checkpoints stay resumable.
	if c.Radio != "" {
		put(append(append(buf[:0], " radio="...), c.Radio...))
	}
	if c.Diurnal != nil {
		put(append(append(buf[:0], " diurnal="...), c.Diurnal.Hash()...))
	}
	return randx.Hex(h)
}

// Run simulates the population and returns its report. With Resume set it
// first loads the checkpoint and simulates only the missing shards; the
// report is byte-identical to an uninterrupted run's.
func Run(cfg Config) (*Report, error) {
	norm, pop, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	r, err := takeRun(&norm, pop)
	if err != nil {
		return nil, err
	}
	defer r.release()
	if norm.Resume {
		if err := loadCheckpoint(norm.CheckpointPath, r.hash, &norm, &r.fold); err != nil {
			return nil, err
		}
		r.polled, r.done = r.fold.folded, r.fold.folded
	}
	if norm.Progress != nil {
		norm.Progress(r.done, norm.shardCount())
	}
	if err := r.crew.ForEachStatus(parallel.NewLimit(norm.Workers), norm.Devices, r.device, r.finish); err != nil {
		return nil, err
	}
	if r.err == nil && norm.CheckpointPath != "" {
		r.err = r.writeCheckpoint()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.halted {
		return nil, ErrHalted
	}
	return r.fold.report(&norm, r.hash)
}

// run is one Run's state. A finished run goes on the runs free list with
// what it grew, so a warmed Run allocates its report, not its scheduling.
type run struct {
	cfg  Config
	pop  *workload.Population
	hash string

	// mu guards polled, halted, free and writes to open; room wakes
	// admissions waiting for a buffer.
	mu   sync.Mutex
	room sync.Cond
	// polled counts the shards, in shard order, that were restored or
	// polled and admitted. halted is set when Halt stopped shard polled or
	// a device failed; no later shard is admitted.
	polled int
	halted bool
	// open holds each admitted shard's outcomes until it folds.
	open []*shardOutcomes
	// free holds the outcome buffers no shard holds: Workers+2, or one
	// per shard if fewer, each sized for the longest shard. Every buffer
	// comes back, and a shard admitted when none is free waits for a fold,
	// which bounds how far fast workers run ahead of a slow one.
	free []*shardOutcomes
	// buffers holds every outcome buffer the run has grown, the most any
	// run on it held at once; free starts as a prefix of it.
	buffers []*shardOutcomes
	// scratches holds one scratch per worker slot, and crew the worker
	// goroutines that run the slots.
	scratches []*scratch
	crew      parallel.Crew

	// The rest belongs to the completion hook, which ForEachStatus
	// serializes: the fold, the count of finished shards, the buffer
	// snapshots are written from, and the first checkpoint failure.
	fold     fold
	done     int
	snapshot []byte
	err      error
}

// runs is the free list of finished runs. Unlike a sync.Pool, it keeps
// its runs through garbage collections, which would make every scratch
// and span grow again. Its 16 slots bound what it keeps for runs that ran
// at once; a run released to a full list is left to the collector.
var runs = make(chan *run, 16)

// takeRun takes a run off the free list, or builds one, and readies it
// for cfg.
func takeRun(cfg *Config, pop *workload.Population) (*run, error) {
	var r *run
	select {
	case r = <-runs:
	default:
		r = new(run)
		r.room.L = &r.mu
	}
	r.cfg, r.pop, r.hash = *cfg, pop, cfg.hash()
	r.polled, r.halted, r.done, r.err = 0, false, 0, nil
	r.open = slices.Grow(r.open[:0], cfg.shardCount())[:cfg.shardCount()]
	// Buffers beyond the run's, left by a run with more workers or
	// shards, are kept as they are. The run's are grown to its first
	// shard, the longest, which is shorter than ShardSize when the fleet
	// is.
	held := min(cfg.Workers+2, cfg.shardCount())
	for len(r.buffers) < held {
		r.buffers = append(r.buffers, new(shardOutcomes))
	}
	r.free = append(r.free[:0], r.buffers[:held]...)
	for _, so := range r.free {
		so.outs = slices.Grow(so.outs[:0], min(cfg.ShardSize, cfg.Devices))
	}
	for w := range min(cfg.Workers, cfg.Devices) {
		if w == len(r.scratches) {
			r.scratches = append(r.scratches, newScratch())
		}
		if err := r.scratches[w].etrain.Reset(core.Options{Theta: cfg.Theta, K: cfg.K}); err != nil {
			r.release()
			return nil, err
		}
	}
	if err := r.fold.reset(cfg); err != nil {
		r.release()
		return nil, err
	}
	return r, nil
}

// release puts r back on the free list, unless it is full, when r's
// worker goroutines end. What r holds of the caller's config is dropped.
func (r *run) release() {
	clear(r.open)
	r.cfg, r.pop = Config{}, nil
	select {
	case runs <- r:
	default:
		r.crew.Close()
	}
}

// shardOutcomes collects one shard's device outcomes, slotted by device
// offset, and counts the finished ones.
type shardOutcomes struct {
	outs     []DeviceOutcome
	finished int
}

// admit returns the outcome buffer of shard s, or nil when the device
// jobs of s are no-ops: the shard was restored, or the run halted at it or
// an earlier shard. The first device of a shard to get here polls Halt
// for every shard up to s not yet polled, in shard order, so Halt is
// polled once per unrestored shard until it returns true. An admission
// may wait for a free buffer, which cannot deadlock: the devices of every
// admitted shard were handed out before s's, to jobs that do not wait.
func (r *run) admit(s int) *shardOutcomes {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.polled <= s && !r.halted {
		n := len(r.free)
		if n == 0 {
			r.room.Wait()
			continue
		}
		if r.cfg.Halt != nil && r.cfg.Halt() {
			r.halted = true
			break
		}
		so := r.free[n-1]
		r.free = r.free[:n-1]
		lo, hi := r.cfg.shardRange(r.polled)
		so.outs, so.finished = so.outs[:hi-lo], 0
		r.open[r.polled] = so
		r.polled++
	}
	if s >= r.polled {
		return nil
	}
	return r.open[s]
}

// device is the job of device i in worker slot w: it runs the device's
// pair on the slot's scratch and slots the outcome into its shard.
//
//etrain:hotpath
func (r *run) device(w, i int) error {
	s := i / r.cfg.ShardSize
	so := r.admit(s)
	if so == nil {
		return nil
	}
	out, err := r.scratches[w].runDevice(&r.cfg, r.pop, i)
	if err != nil {
		return fmt.Errorf("shard %d: device %d: %w", s, i, err)
	}
	so.outs[i-s*r.cfg.ShardSize] = out
	return nil
}

// finish is the completion hook of device i. On the last device of a
// shard it folds every finished shard that continues the prefix, frees
// their buffers, and reports progress and writes the checkpoint when due.
// Device i's admission wrote open[s] before its job ran, so the hook reads
// it without r.mu. A failed device halts admission, since its shard can
// never fold to free a buffer.
func (r *run) finish(i int, err error) {
	s := i / r.cfg.ShardSize
	so := r.open[s]
	if err != nil {
		r.mu.Lock()
		r.halted = true
		r.mu.Unlock()
		r.room.Broadcast()
		return
	}
	if so == nil {
		return
	}
	if so.finished++; so.finished < len(so.outs) {
		return
	}
	r.done++
	// Only admitted slots are read: admit may be writing the next one.
	r.mu.Lock()
	admitted := r.polled
	r.mu.Unlock()
	for f := &r.fold; f.folded < admitted && r.open[f.folded].finished == len(r.open[f.folded].outs); {
		next := r.open[f.folded]
		r.open[f.folded] = nil
		f.addShard(next.outs)
		r.mu.Lock()
		r.free = append(r.free, next)
		r.mu.Unlock()
		r.room.Broadcast()
	}
	if r.cfg.Progress != nil {
		r.cfg.Progress(r.done, r.cfg.shardCount())
	}
	if r.cfg.CheckpointPath != "" && r.cfg.CheckpointEvery > 0 && r.done%r.cfg.CheckpointEvery == 0 {
		if werr := r.writeCheckpoint(); werr != nil {
			r.err = cmp.Or(r.err, werr)
		}
	}
}
