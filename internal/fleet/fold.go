package fleet

import (
	"fmt"
	"sync"
)

// fold is a run's report as it grows:
//
//   - the folded prefix: the shards [0, folded), whose class moments have
//     merged into prefix and total strictly in shard order, as the report
//     needs them, and whose devices' values are counted in the run's class
//     sketches;
//   - the pending shards: finished shards beyond the prefix, each keeping
//     its outcome buffer until every shard before it has finished.
//
// Its memory depends on the mix, the sketches' spans and the pending
// shards, not on the device count. A shard waits only while a device of an
// earlier shard still runs, so the pending shards are a reorder window:
// each holds ShardSize × 40 B of outcomes, and how many wait at once grows
// with how far the other workers get ahead of the slowest running device.
// In 100k-device runs of 256-device shards on a 2-vCPU host, no shard
// waited at 2 workers, and at 8 the most that waited at once was 17 and
// 19 in two runs; at 1 worker none can.
//
// A fold belongs to the hook that finishes shards, which ForEachStatus
// serializes. Folds are pooled across runs, so a run counts its samples in
// spans an earlier run grew.
type fold struct {
	alpha  float64
	folded int
	prefix []ClassMoments
	total  ClassMoments
	// pending holds the finished shards beyond the prefix by index.
	pending map[int]*shardOutcomes
	// sketches holds one entry per mix entry.
	sketches []ClassSketches
	// shard is the scratch each folding shard's class moments fill before
	// they merge into prefix and total.
	shard []ClassMoments
}

// foldPool holds the folds of finished runs.
var foldPool sync.Pool

// getFold returns an empty fold for cfg's mix and sketch accuracy.
func getFold(cfg *Config) (*fold, error) {
	classes := len(cfg.Mix)
	f, _ := foldPool.Get().(*fold)
	if f != nil && f.alpha == cfg.SketchAlpha && len(f.sketches) == classes {
		for c := range f.sketches {
			f.sketches[c].reset()
		}
		f.folded = 0
		clear(f.prefix)
		f.total = ClassMoments{}
		return f, nil
	}
	f = &fold{
		alpha:    cfg.SketchAlpha,
		prefix:   make([]ClassMoments, classes),
		pending:  make(map[int]*shardOutcomes),
		sketches: make([]ClassSketches, classes),
		shard:    make([]ClassMoments, classes),
	}
	for c := range f.sketches {
		var err error
		if f.sketches[c], err = newClassSketches(cfg.SketchAlpha); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// release returns f to the pool; f must not be used after. A run that
// failed can leave pending shards, whose buffers are dropped.
func (f *fold) release() {
	clear(f.pending)
	foldPool.Put(f)
}

// addShard takes the outcome buffer of finished shard s and folds every
// shard that continues the prefix, in shard order: its devices' moments,
// in index order, into the shard scratch, which merges into the prefix's
// class and total moments, and their values into the run's sketches. A
// folded shard's buffer goes back to outcomesPool; a shard beyond the
// prefix waits in pending.
func (f *fold) addShard(s int, so *shardOutcomes) {
	f.pending[s] = so
	for next, ok := f.pending[f.folded]; ok; next, ok = f.pending[f.folded] {
		delete(f.pending, f.folded)
		clear(f.shard)
		for _, o := range next.outs {
			saved, saving := f.shard[o.ClassIndex].add(o)
			f.sketches[o.ClassIndex].add(saved, saving, o.DelayS)
		}
		for c := range f.shard {
			f.prefix[c].merge(&f.shard[c])
			f.total.merge(&f.shard[c])
		}
		outcomesPool.Put(next)
		f.folded++
	}
}

// finished counts the finished shards, folded or pending.
func (f *fold) finished() int { return f.folded + len(f.pending) }

// report returns the run's report once every shard has folded. Its
// sketches are copies spanning exactly their occupied buckets, so a kept
// report holds no headroom and shares nothing with the pooled fold.
func (f *fold) report(cfg *Config, hash string) (*Report, error) {
	if f.folded != cfg.shardCount() {
		return nil, fmt.Errorf("fleet: %d of %d shards folded", f.folded, cfg.shardCount())
	}
	r := &Report{
		Devices:     cfg.Devices,
		Shards:      cfg.shardCount(),
		ShardSize:   cfg.ShardSize,
		Horizon:     cfg.Horizon,
		Theta:       cfg.Theta,
		K:           cfg.K,
		Seed:        cfg.Seed,
		SketchAlpha: cfg.SketchAlpha,
		Radio:       cfg.Radio,
		ConfigHash:  hash,
		Classes:     make([]ClassRow, len(cfg.Mix)),
		Total:       ClassAggregate{ClassMoments: f.total},
	}
	if cfg.Diurnal != nil {
		r.Diurnal = cfg.Diurnal.Name
	}
	var err error
	if r.Total.ClassSketches, err = newClassSketches(cfg.SketchAlpha); err != nil {
		return nil, err
	}
	for c, share := range cfg.Mix {
		row := &r.Classes[c]
		row.Label = share.Class.String()
		row.Agg.ClassMoments = f.prefix[c]
		if row.Agg.ClassSketches, err = copySketches(cfg.SketchAlpha, &f.sketches[c]); err != nil {
			return nil, fmt.Errorf("fleet: class %d: %w", c, err)
		}
		if err := r.Total.ClassSketches.merge(&f.sketches[c]); err != nil {
			return nil, fmt.Errorf("fleet: class %d: %w", c, err)
		}
	}
	return r, nil
}

// copySketches returns new sketches at accuracy alpha holding k's counts
// over exactly their occupied buckets.
func copySketches(alpha float64, k *ClassSketches) (ClassSketches, error) {
	c, err := newClassSketches(alpha)
	if err != nil {
		return c, err
	}
	return c, c.merge(k)
}
